package bdrmapit

import (
	"context"
	"fmt"
	"io"
	"net/netip"
	"path/filepath"
	"strings"

	"repro/internal/alias"
	"repro/internal/asn"
	"repro/internal/asrel"
	"repro/internal/bgp"
	"repro/internal/ip2as"
	"repro/internal/ixp"
	"repro/internal/mrt"
	"repro/internal/obs"
	"repro/internal/pfx2as"
	"repro/internal/rir"
)

// SourceError is the structured diagnostic for one input source file
// that failed to open or parse. It always names the source class and
// the offending file, and wraps the underlying cause for errors.Is/As.
type SourceError struct {
	// Class is the source class: "traceroute", "rib", "prefix2as",
	// "rir", "ixp", "relationships", or "alias".
	Class string
	// Path is the file that failed.
	Path string
	// Err is the underlying open or parse error.
	Err error
}

func (e *SourceError) Error() string {
	return fmt.Sprintf("bdrmapit: %s source %s: %v", e.Class, e.Path, e.Err)
}

func (e *SourceError) Unwrap() error { return e.Err }

// Fallbacks documented per optional source class — the paper's
// graceful-degradation semantics (§7.4 for aliases; relationship
// inference from RIB AS paths when CAIDA serial-1 is absent).
const (
	fallbackAlias     = "treating each interface as its own router (§7.4)"
	fallbackRels      = "relationships inferred from RIB AS paths"
	fallbackRelsPart  = "relationships from the remaining files"
	fallbackRIR       = "no RIR delegations (unrouted addresses stay unannounced)"
	fallbackIXP       = "no IXP detection (peering-LAN addresses treated as ordinary addresses)"
	fallbackPfx2AS    = "origin data from BGP RIBs only"
	fallbackAliasPart = "alias groups from the remaining files"
)

// loader threads one run's failure policy through every input class:
// context checks, the required-source error budget, and optional-source
// degradation to the paper-documented fallbacks.
type loader struct {
	ctx   context.Context
	opts  *Options
	rec   *obs.Recorder
	warnw io.Writer
	// who prefixes the run's own load errors and corpus names its trace
	// files in them ("bdrmapit", "traceroute").
	who, corpus string
	// span is the run's load-inputs phase; every class loads under it.
	span *obs.Span

	badRequired int
	// pending, when set, makes this the loader of the classes that load
	// beside the trace producer: a failure the policy might let the run
	// survive is recorded here instead of acted on, and the load goes on
	// as if it had been. Whether it was is for head.join to say, once the
	// trace files — first in Sources order — have spent what they will of
	// the budget.
	pending *[]sourceFailure
}

// sourceFailure is one failed input file waiting for loader.settle.
type sourceFailure struct {
	class, path string
	err         error
	// fallback is what an optional source degrades to; empty for a
	// required source, which spends the error budget instead.
	fallback string
}

// loadCancelled is the error of a load that observed ctx's cancellation.
func loadCancelled(ctx context.Context) error {
	return fmt.Errorf("bdrmapit: load cancelled: %w", ctx.Err())
}

// checkCtx observes cancellation. The per-class loaders call it between
// files; the trace producer also sees cancellation at every chunk it
// hands over, and has the file it is reading closed under it.
func (l *loader) checkCtx() error {
	if l.ctx.Err() != nil {
		return loadCancelled(l.ctx)
	}
	return nil
}

// failRequired accounts one failed required-source file (traceroutes,
// BGP RIBs) against Options.MaxBadInputFiles. Within budget it warns
// loudly and returns nil so the run continues without that file; over
// budget — or under Options.Strict — it returns the SourceError.
func (l *loader) failRequired(class, path string, err error) error {
	srcErr := &SourceError{Class: class, Path: path, Err: err}
	if l.opts.Strict || l.badRequired >= l.opts.MaxBadInputFiles {
		return srcErr
	}
	if l.pending != nil {
		*l.pending = append(*l.pending, sourceFailure{class: class, path: path, err: err})
		return nil
	}
	l.badRequired++
	l.rec.Counter("load.bad_input_files").Inc()
	l.rec.Warnf("skipping %s source %s (bad input file %d of %d allowed): %v",
		class, path, l.badRequired, l.opts.MaxBadInputFiles, err)
	fmt.Fprintf(l.warnw, "bdrmapit: WARNING: skipping %s source %s (bad input file %d of %d allowed): %v\n",
		class, path, l.badRequired, l.opts.MaxBadInputFiles, err)
	return nil
}

// degrade records one failed optional-source file: a structured entry
// in Report.Degradations plus a loud stderr warning. Under
// Options.Strict the failure is returned as a hard error instead.
func (l *loader) degrade(class, path, fallback string, err error) error {
	if l.opts.Strict {
		return &SourceError{Class: class, Path: path, Err: err}
	}
	if l.pending != nil {
		*l.pending = append(*l.pending, sourceFailure{class: class, path: path, err: err, fallback: fallback})
		return nil
	}
	d := obs.Degradation{Class: class, Path: path, Fallback: fallback, Error: err.Error()}
	l.rec.Degrade(d)
	fmt.Fprintf(l.warnw, "bdrmapit: WARNING: %s\n", d)
	return nil
}

// settle acts on a failure that waited in pending.
func (l *loader) settle(f sourceFailure) error {
	if f.fallback == "" {
		return l.failRequired(f.class, f.path, f.err)
	}
	return l.degrade(f.class, f.path, f.fallback, f.err)
}

// loadContext loads every class but the traces, one after another in
// Sources field order.
func (l *loader) loadContext(src Sources) (*contextInputs, error) {
	routes, err := l.loadRoutes(src.BGPRIBPaths, src.Prefix2ASPaths)
	if err != nil {
		return nil, err
	}
	dels, err := l.loadRIR(src.RIRDelegationPaths)
	if err != nil {
		return nil, err
	}
	ixps, err := l.loadIXPs(src.IXPPrefixListPaths)
	if err != nil {
		return nil, err
	}
	rels, err := l.loadRels(src.ASRelationshipPaths, routes)
	if err != nil {
		return nil, err
	}
	aliases, err := l.loadAliases(src.AliasNodePaths)
	if err != nil {
		return nil, err
	}
	return &contextInputs{
		resolver: &ip2as.Resolver{IXPs: ixps, Table: bgp.NewTable(routes), Delegations: dels},
		routes:   len(routes),
		rels:     rels,
		aliases:  aliases,
	}, nil
}

func (l *loader) loadRoutes(ribPaths, pfx2asPaths []string) ([]bgp.Route, error) {
	phase := l.span.Child("load-rib")
	defer phase.End()
	var routes []bgp.Route
	for _, p := range ribPaths {
		if err := l.checkCtx(); err != nil {
			return nil, err
		}
		var (
			r     []bgp.Route
			stats bgp.ReadStats
			err   error
		)
		if strings.EqualFold(filepath.Ext(p), ".mrt") {
			r, err = withFile(p, mrt.Read)
			stats.Routes = len(r)
		} else {
			err = withFileErr(p, func(f io.Reader) error {
				var rerr error
				r, stats, rerr = bgp.ReadRoutesStats(f)
				return rerr
			})
		}
		if err != nil {
			if ferr := l.failRequired("rib", p, err); ferr != nil {
				return nil, ferr
			}
			continue
		}
		if routes == nil {
			routes = r // the one file's routes, not a copy
		} else {
			routes = append(routes, r...)
		}
		l.rec.Counter("load.rib.routes").Add(int64(stats.Routes))
		l.rec.Counter("load.rib.skipped_lines").Add(int64(stats.SkippedLines))
	}
	for _, p := range pfx2asPaths {
		if err := l.checkCtx(); err != nil {
			return nil, err
		}
		entries, err := withFile(p, pfx2as.Read)
		if err != nil {
			if derr := l.degrade("prefix2as", p, fallbackPfx2AS, err); derr != nil {
				return nil, derr
			}
			continue
		}
		// Fold into the origin table as one-element synthetic routes
		// (multi-origin entries become AS_SETs, preserving MOAS
		// semantics).
		for _, e := range entries {
			var elem bgp.PathElem
			if len(e.Origins) == 1 {
				elem = bgp.PathElem{AS: e.Origins[0]}
			} else {
				elem = bgp.PathElem{Set: e.Origins}
			}
			routes = append(routes, bgp.Route{Prefix: e.Prefix, Path: []bgp.PathElem{elem}})
		}
		l.rec.Counter("load.rib.routes").Add(int64(len(entries)))
	}
	phase.Note("routes", int64(len(routes)))
	return routes, nil
}

func (l *loader) loadRIR(paths []string) (*rir.Delegations, error) {
	phase := l.span.Child("load-rir")
	defer phase.End()
	dels := rir.New()
	for _, p := range paths {
		if err := l.checkCtx(); err != nil {
			return nil, err
		}
		var stats rir.ReadStats
		if err := withFileErr(p, func(f io.Reader) error {
			var rerr error
			stats, rerr = rir.ReadIntoStats(dels, f)
			return rerr
		}); err != nil {
			// ReadIntoStats may have merged records before the error;
			// the retained prefix of the file is harmless (each record
			// is independent), and the degradation entry says the file
			// was not fully applied.
			if derr := l.degrade("rir", p, fallbackRIR, err); derr != nil {
				return nil, derr
			}
			continue
		}
		l.rec.Counter("load.rir.records").Add(int64(stats.Records))
		l.rec.Counter("load.rir.addr_records").Add(int64(stats.AddrRecords))
		l.rec.Counter("load.rir.unmatched_opaque").Add(int64(stats.UnmatchedOpaque))
	}
	phase.Note("prefixes", int64(dels.NumPrefixes()))
	return dels, nil
}

func (l *loader) loadIXPs(paths []string) (*ixp.Set, error) {
	phase := l.span.Child("load-ixp")
	defer phase.End()
	ixps := ixp.NewSet()
	for _, p := range paths {
		if err := l.checkCtx(); err != nil {
			return nil, err
		}
		if err := withFileErr(p, func(f io.Reader) error {
			switch strings.ToLower(filepath.Ext(p)) {
			case ".json":
				return ixps.ReadJSON(f)
			case ".csv":
				return ixps.ReadCSV(f)
			default:
				_, err := ixps.ReadListStats(f)
				return err
			}
		}); err != nil {
			if derr := l.degrade("ixp", p, fallbackIXP, err); derr != nil {
				return nil, derr
			}
			continue
		}
	}
	l.rec.Counter("load.ixp.prefixes").Add(int64(ixps.Len()))
	phase.Note("prefixes", int64(ixps.Len()))
	return ixps, nil
}

// loadRels reads the relationship files. The graph the first file that
// reads gives is kept, not copied, and the edges of every later one are
// merged into it; with no file, or none that reads, relationships are
// inferred from the RIB's AS paths.
func (l *loader) loadRels(paths []string, routes []bgp.Route) (*asrel.Graph, error) {
	phase := l.span.Child("load-relationships")
	defer phase.End()
	inferFromRIB := func() *asrel.Graph {
		asPaths := make([][]asn.ASN, 0, len(routes))
		for _, rt := range routes {
			asPaths = append(asPaths, rt.ASPath())
		}
		g := asrel.Infer(asPaths)
		l.rec.Logf("inferred AS relationships from %d RIB paths", len(asPaths))
		return g
	}
	var rels *asrel.Graph
	if len(paths) > 0 {
		var failed []*SourceError
		for _, p := range paths {
			if err := l.checkCtx(); err != nil {
				return nil, err
			}
			g, err := withFile(p, asrel.Read)
			if err != nil {
				if l.opts.Strict {
					return nil, &SourceError{Class: "relationships", Path: p, Err: err}
				}
				failed = append(failed, &SourceError{Class: "relationships", Path: p, Err: err})
				continue
			}
			if rels == nil {
				rels = g
			} else {
				rels.Merge(g)
			}
		}
		// The class-level fallback depends on whether any file survived:
		// with none, relationships come from RIB AS paths (the paper's
		// no-serial-1 fallback); with some, the run continues on the
		// partial relationship graph.
		fallback := fallbackRelsPart
		if rels == nil {
			fallback = fallbackRels
			rels = inferFromRIB()
		}
		for _, se := range failed {
			if derr := l.degrade(se.Class, se.Path, fallback, se.Err); derr != nil {
				return nil, derr
			}
		}
	} else {
		rels = inferFromRIB()
	}
	l.rec.Counter("load.rel.ases").Add(int64(len(rels.ASes())))
	return rels, nil
}

// loadAliases reads the alias node files. The partition the first file
// that reads gives is kept, not copied, and the groups of every later one
// are merged into it.
func (l *loader) loadAliases(paths []string) (*alias.Sets, error) {
	phase := l.span.Child("load-aliases")
	defer phase.End()
	var aliases *alias.Sets
	aliasGroups := 0
	var failed []*SourceError
	for _, p := range paths {
		if err := l.checkCtx(); err != nil {
			return nil, err
		}
		s, err := withFile(p, alias.ReadNodes)
		if err != nil {
			if l.opts.Strict {
				return nil, &SourceError{Class: "alias", Path: p, Err: err}
			}
			failed = append(failed, &SourceError{Class: "alias", Path: p, Err: err})
			continue
		}
		aliasGroups += s.NumGroups()
		if aliases == nil {
			aliases = s
			continue
		}
		s.Groups(func(addrs []netip.Addr) bool {
			aliases.Add(addrs...)
			return true
		})
	}
	if aliases == nil {
		aliases = alias.NewSets()
	}
	// With no surviving alias file the run degrades to the paper's
	// no-alias mode (§7.4: each interface its own router); with some,
	// only coverage shrinks.
	fallback := fallbackAliasPart
	if aliasGroups == 0 {
		fallback = fallbackAlias
	}
	for _, se := range failed {
		if derr := l.degrade(se.Class, se.Path, fallback, se.Err); derr != nil {
			return nil, derr
		}
	}
	l.rec.Counter("load.alias.groups").Add(int64(aliasGroups))
	return aliases, nil
}
