// Package eval scores bdrmapIT and its comparators against the
// simulator's ground truth and regenerates every table and figure of
// the paper's evaluation (§7). See EXPERIMENTS.md for the experiment
// index and recorded results.
package eval

import (
	"net/netip"
	"slices"

	"repro/internal/alias"
	"repro/internal/asn"
	"repro/internal/asrel"
	"repro/internal/ip2as"
	"repro/internal/netutil"
	"repro/internal/topo"
	"repro/internal/traceroute"
)

// Dataset bundles one simulated measurement campaign with every input
// bdrmapIT consumes, mirroring an ITDK release: traceroutes from many
// VPs, a BGP-derived IP→AS resolver, inferred AS relationships, and
// alias-resolution runs.
type Dataset struct {
	In      *topo.Internet
	VPs     []topo.VP
	Traces  []*traceroute.Trace
	Targets []netip.Addr

	Resolver *ip2as.Resolver
	// Rels is inferred from the simulated BGP paths (as CAIDA's
	// relationship files are) — BGP-invisible relationships are
	// genuinely missing, as in the real inputs.
	Rels *asrel.Graph

	// Aliases is the midar+iffinder alias run over observed addresses.
	Aliases *alias.Sets
	// KaparAliases additionally includes the imprecise analytical
	// technique (§7.4).
	KaparAliases *alias.Sets

	// GT names the ground-truth validation networks.
	GT map[string]asn.ASN

	// Workers is the default worker count for inference runs launched
	// through this dataset (0 = GOMAXPROCS). Worker count never changes
	// an inference — the engine shards deterministically — only the
	// wall-clock time of the experiments.
	Workers int
}

// BuildDataset generates an Internet from cfg, selects numVPs vantage
// points (excluding the ground-truth networks when excludeGT is set —
// the §7.2 "no in-network VP" regime), runs the traceroute campaign,
// and performs alias resolution over the observed addresses.
func BuildDataset(cfg topo.Config, numVPs int, excludeGT bool) (*Dataset, error) {
	in, err := topo.Generate(cfg)
	if err != nil {
		return nil, err
	}
	ds := &Dataset{In: in, GT: in.GroundTruthNetworks()}
	var exclude asn.SmallSet
	if excludeGT {
		for _, a := range ds.GT {
			exclude.Add(a)
		}
	}
	ds.VPs = in.SelectVPs(numVPs, exclude)
	ds.Targets = in.Targets()
	ds.Traces = in.RunCampaign(ds.VPs, ds.Targets)
	ds.Resolver = in.Resolver()
	ds.Rels = asrel.Infer(in.ASPaths())
	ds.resolveAliases()
	return ds, nil
}

// resolveAliases runs the midar+iffinder and kapar alias techniques
// over the addresses observed in the campaign.
func (ds *Dataset) resolveAliases() {
	addrs := ObservedAddrs(ds.Traces)
	p := ds.In.Prober()
	midar := alias.MIDAR(p, addrs, alias.MIDAROptions{})
	iff := alias.Iffinder(p, addrs)
	ds.Aliases = alias.Merge(midar, iff)
	isIXP := func(a netip.Addr) bool { return ds.In.IXPPrefixes.Contains(a) }
	ds.KaparAliases = alias.Merge(midar, iff, alias.Kapar(ds.Traces, isIXP))
}

// ObservedAddrs returns the sorted set of non-special addresses that
// replied in the trace archive.
func ObservedAddrs(traces []*traceroute.Trace) []netip.Addr {
	// keep holds each distinct address's verdict, so IsSpecial runs once
	// per address rather than once per hop (an archive repeats an
	// address hundreds of times).
	keep := make(map[netip.Addr]bool)
	for _, t := range traces {
		for _, h := range t.Hops {
			if _, ok := keep[h.Addr]; !ok {
				keep[h.Addr] = !netutil.IsSpecial(h.Addr)
			}
		}
	}
	out := make([]netip.Addr, 0, len(keep))
	for a, k := range keep {
		if k {
			out = append(out, a)
		}
	}
	slices.SortFunc(out, netip.Addr.Compare)
	return out
}

// TracesFromVPs filters the archive to a subset of vantage points
// (the §7.3 VP-count sweep).
func (ds *Dataset) TracesFromVPs(vps []topo.VP) []*traceroute.Trace {
	names := make(map[string]bool, len(vps))
	for _, vp := range vps {
		names[vp.Name] = true
	}
	var out []*traceroute.Trace
	for _, t := range ds.Traces {
		if names[t.VP] {
			out = append(out, t)
		}
	}
	return out
}

// EmptyAliases returns an alias partition with no groups: every
// interface becomes its own IR (the §7.4 no-alias-resolution run).
func EmptyAliases() *alias.Sets { return alias.NewSets() }
