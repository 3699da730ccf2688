package bdrmapit

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"repro/internal/alias"
	"repro/internal/asn"
	"repro/internal/asrel"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/ip2as"
	"repro/internal/ixp"
	"repro/internal/rir"
	"repro/internal/serve"
	"repro/internal/topo"
	"repro/internal/traceroute"
	"repro/simnet"
)

// oracleServeSnapshot is the serving-snapshot builder as it was before
// the snapshot was read off the graph's own order, kept verbatim as the
// differential oracle: interfaces router by router, links through
// InterdomainLinks and a dedup map, then every table sorted.
func oracleServeSnapshot(r *Result) (*serve.Snapshot, error) {
	h := fnv.New64a()
	if err := r.Annotations(h); err != nil {
		return nil, err
	}
	snap := &serve.Snapshot{
		Source: fmt.Sprintf("bdrmapit run: %d routers, %d interfaces, %d refinement iteration(s), converged=%v",
			r.NumRouters(), r.NumInterfaces(), r.Iterations, r.Converged),
		AnnDigest: h.Sum64(),
	}
	snap.Routers = make([]uint32, len(r.res.Graph.Routers))
	for idx, rt := range r.res.Graph.Routers {
		snap.Routers[idx] = uint32(rt.Annotation)
		for _, i := range rt.Interfaces {
			snap.Ifaces = append(snap.Ifaces, serve.Iface{Addr: i.Addr, Router: uint32(idx), ConnAS: uint32(i.Annotation)})
		}
	}
	type linkKey struct {
		far           netip.Addr
		nearAS, farAS uint32
	}
	best := make(map[linkKey]string)
	var order []linkKey
	for _, l := range r.res.InterdomainLinks() {
		k := linkKey{far: l.FarAddr, nearAS: uint32(l.NearAS), farAS: uint32(l.FarAS)}
		label := l.Label.String()
		if prev, seen := best[k]; !seen {
			best[k] = label
			order = append(order, k)
		} else if linkLabelRank(label) > linkLabelRank(prev) {
			best[k] = label
		}
	}
	for _, k := range order {
		snap.Links = append(snap.Links, serve.Link{FarAddr: k.far, NearAS: k.nearAS, FarAS: k.farAS, Label: best[k]})
	}
	snap.Prefixes = flattenIP2AS(r.resolver)
	sort.Slice(snap.Ifaces, func(i, j int) bool {
		return snap.Ifaces[i].Addr.Compare(snap.Ifaces[j].Addr) < 0
	})
	sort.Slice(snap.Links, func(i, j int) bool {
		a, b := &snap.Links[i], &snap.Links[j]
		if c := a.FarAddr.Compare(b.FarAddr); c != 0 {
			return c < 0
		}
		if a.NearAS != b.NearAS {
			return a.NearAS < b.NearAS
		}
		return a.FarAS < b.FarAS
	})
	sort.Slice(snap.Prefixes, func(i, j int) bool {
		a, b := &snap.Prefixes[i], &snap.Prefixes[j]
		if c := a.Prefix.Addr().Compare(b.Prefix.Addr()); c != 0 {
			return c < 0
		}
		if a.Prefix.Bits() != b.Prefix.Bits() {
			return a.Prefix.Bits() < b.Prefix.Bits()
		}
		return a.Kind < b.Kind
	})
	return snap, nil
}

// encodeSnapshot is serve.Encode's bytes for snap.
func encodeSnapshot(t *testing.T, snap *serve.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := serve.Encode(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// oracleSnapshotBytes is the oracle's encoded snapshot for r.
func oracleSnapshotBytes(t *testing.T, r *Result) []byte {
	t.Helper()
	snap, err := oracleServeSnapshot(r)
	if err != nil {
		t.Fatal(err)
	}
	return encodeSnapshot(t, snap)
}

// checkSnapshotMatchesOracle requires ServeSnapshot to encode r to the
// oracle's bytes.
func checkSnapshotMatchesOracle(t *testing.T, what string, r *Result) {
	t.Helper()
	snap, err := r.ServeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := encodeSnapshot(t, snap), oracleSnapshotBytes(t, r); !bytes.Equal(got, want) {
		t.Errorf("%s: snapshot encodes to %d bytes, the oracle's to %d, and they differ", what, len(got), len(want))
	}
}

// snapWorld is the inputs a graph is built over.
type snapWorld struct {
	resolver *ip2as.Resolver
	aliases  *alias.Sets
	rels     *asrel.Graph
}

// mustRun refines g to completion, failing t on an error.
func mustRun(t testing.TB, g *core.Graph, rels core.RelationshipOracle, opts core.Options) *core.Result {
	t.Helper()
	res, err := core.RunContext(context.Background(), g, rels, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// result wraps a core result over w the way Run does.
func (w snapWorld) result(res *core.Result) *Result {
	return &Result{res: res, resolver: w.resolver, Iterations: res.Iterations, Converged: res.Converged}
}

// session builds one graph over parts, appending each part in place the
// way an ingest session absorbs a batch, and requires the two builders
// to agree on the annotated graph after every append.
func (w snapWorld) session(t *testing.T, what string, parts [][]*traceroute.Trace, workers int) {
	t.Helper()
	b := core.NewBuilder(w.resolver, w.aliases)
	b.Workers = workers
	for k, part := range parts {
		b.AddTraces(part)
		g := b.Finish(w.rels)
		g.ResetAnnotations()
		res := mustRun(t, g, w.rels, core.Options{Workers: workers})
		checkSnapshotMatchesOracle(t, fmt.Sprintf("%s, after part %d", what, k), w.result(res))
	}
}

// campaignWorld is a simulated campaign from vps vantage points.
func campaignWorld(t *testing.T, seed int64, vps int) (snapWorld, []*traceroute.Trace) {
	t.Helper()
	ds, err := eval.BuildDataset(topo.SmallConfig(seed), vps, false)
	if err != nil {
		t.Fatal(err)
	}
	return snapWorld{resolver: ds.Resolver, aliases: ds.Aliases, rels: ds.Rels}, ds.Traces
}

// handWorld is an empty world whose prefixes the caller announces.
func handWorld(t *testing.T, announce map[string]uint32) snapWorld {
	t.Helper()
	w := snapWorld{
		resolver: &ip2as.Resolver{Table: bgp.NewTable(nil), Delegations: rir.New(), IXPs: ixp.NewSet()},
		aliases:  alias.NewSets(),
		rels:     asrel.New(),
	}
	for prefix, origin := range announce {
		path, err := bgp.ParsePath(fmt.Sprintf("64999 %d", origin))
		if err != nil {
			t.Fatal(err)
		}
		w.resolver.Table.Add(bgp.Route{Prefix: netip.MustParsePrefix(prefix), Path: path})
	}
	return w
}

// handTrace is a traceroute to dst over hops: "addr" answers Time
// Exceeded, "*" is an unresponsive TTL.
func handTrace(dst string, hops ...string) *traceroute.Trace {
	t := &traceroute.Trace{Dst: netip.MustParseAddr(dst), Stop: traceroute.StopGapLimit}
	for k, h := range hops {
		if h != "*" {
			t.Hops = append(t.Hops, traceroute.Hop{Addr: netip.MustParseAddr(h), ProbeTTL: uint8(k + 1), Reply: traceroute.TimeExceeded})
		}
	}
	return t
}

// TestServeSnapshotMatchesParentBuilder holds ServeSnapshot to the
// parent's builder, byte for byte, on simulated campaigns × workers ×
// alias resolution on/off, and after every append of a session over
// those campaigns and of one whose router representative moves.
func TestServeSnapshotMatchesParentBuilder(t *testing.T) {
	for _, seed := range []int64{1, 2018} {
		w, traces := campaignWorld(t, seed, 12)
		plain := snapWorld{resolver: w.resolver, rels: w.rels}
		for _, workers := range []int{1, 4} {
			w.session(t, fmt.Sprintf("seed %d, aliases, workers %d", seed, workers), [][]*traceroute.Trace{traces}, workers)
			plain.session(t, fmt.Sprintf("seed %d, no aliases, workers %d", seed, workers), [][]*traceroute.Trace{traces}, workers)
		}
		cut := len(traces) * 3 / 5
		step := (len(traces) - cut + 2) / 3
		parts := [][]*traceroute.Trace{traces[:cut]}
		for lo := cut; lo < len(traces); lo += step {
			parts = append(parts, traces[lo:min(lo+step, len(traces))])
		}
		w.session(t, fmt.Sprintf("seed %d, session", seed), parts, 4)
	}

	// 1.0.0.9 and 1.0.0.1 are one router, known by 1.0.0.9 until the
	// second part sees 1.0.0.1: its representative moves ahead of
	// 1.0.0.5's router, and the router IDs shift.
	w := handWorld(t, map[string]uint32{"1.0.0.0/8": 100, "2.0.0.0/8": 200, "9.0.0.0/8": 900})
	w.aliases.Add(netip.MustParseAddr("1.0.0.9"), netip.MustParseAddr("1.0.0.1"))
	w.session(t, "representative moves", [][]*traceroute.Trace{
		{handTrace("9.9.9.9", "1.0.0.5", "1.0.0.9", "2.0.0.1")},
		{handTrace("9.9.9.9", "1.0.0.1"), handTrace("2.0.0.9", "1.0.0.1", "2.0.0.1")},
	}, 1)
}

// TestServeSnapshotLinkTies: two near routers of one AS reach one far
// interface under different labels (the weaker seen first), a near
// router of a smaller AS reaches it later, and a far interface sits on
// an unannotated router. One record per near AS survives, with the best
// label, near ASes ascending.
func TestServeSnapshotLinkTies(t *testing.T) {
	w := handWorld(t, map[string]uint32{"1.0.0.0/8": 100, "2.0.0.0/8": 200, "3.0.0.0/8": 50, "5.0.0.0/8": 500, "6.0.0.0/8": 600})
	b := core.NewBuilder(w.resolver, w.aliases)
	b.AddTraces([]*traceroute.Trace{
		handTrace("2.0.0.99", "1.0.0.2", "*", "2.0.0.1"), // M
		handTrace("2.0.0.99", "1.0.0.1", "2.0.0.1"),      // N
		handTrace("2.0.0.99", "3.0.0.1", "2.0.0.1", "5.0.0.1"),
		handTrace("2.0.0.99", "6.0.0.1", "2.0.0.1"),
	})
	g := b.Finish(w.rels)
	res := mustRun(t, g, w.rels, core.Options{Workers: 1})
	annotate := map[string]asn.ASN{"1.0.0.1": 100, "1.0.0.2": 100, "3.0.0.1": 50, "2.0.0.1": 200, "5.0.0.1": asn.None, "6.0.0.1": asn.None}
	for a, as := range annotate {
		g.Interface(netip.MustParseAddr(a)).Router.Annotation = as
	}
	r := w.result(res)
	checkSnapshotMatchesOracle(t, "ties", r)

	snap, err := r.ServeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	far := netip.MustParseAddr("2.0.0.1")
	want := []serve.Link{{FarAddr: far, NearAS: 50, FarAS: 200, Label: "N"}, {FarAddr: far, NearAS: 100, FarAS: 200, Label: "N"}}
	if !slices.Equal(snap.Links, want) {
		t.Errorf("links %v, want %v", snap.Links, want)
	}
}

// TestIngestSnapshotsMatchParentBuilder: every snapshot an ingest session
// publishes — one session per absorbed batch, each appending to the
// graph it rebuilt — encodes to the parent builder's bytes over a
// from-scratch run of the same corpus.
func TestIngestSnapshotsMatchParentBuilder(t *testing.T) {
	p := writeTopology(t, simnet.Options{Small: true, Seed: 42})
	dir := t.TempDir()
	base, batches, _ := splitCorpus(t, p.Traceroutes, dir)
	src := topoSources(p)
	src.TraceroutePaths = []string{base}
	opts := IngestOptions{
		StateDir:     filepath.Join(dir, "state"),
		SnapshotPath: filepath.Join(dir, "snapshot.bin"),
		Run:          Options{Workers: 2, WarnWriter: io.Discard},
	}
	for k := range batches {
		if _, err := Ingest(src, batches[:k+1], opts); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(opts.SnapshotPath)
		if err != nil {
			t.Fatal(err)
		}
		scratch := topoSources(p)
		scratch.TraceroutePaths = append([]string{base}, batches[:k+1]...)
		res, err := Run(scratch, Options{WarnWriter: io.Discard})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, oracleSnapshotBytes(t, res)) {
			t.Errorf("snapshot published after batch %d differs from the parent builder's", k+1)
		}
	}
}

// TestServeSnapshotAllocsFlat: building a snapshot from a finished run
// allocates a fixed number of times, whatever the size of the graph.
// Under the race runtime both snapshots are still built but the counts
// are not compared: it allocates on its own account (as the standard
// library's AllocsPerRun tests assume).
func TestServeSnapshotAllocsFlat(t *testing.T) {
	var allocs, ifaces []float64
	for _, vps := range []int{3, 12} {
		w, traces := campaignWorld(t, 1, vps)
		b := core.NewBuilder(w.resolver, w.aliases)
		b.AddTraces(traces)
		g := b.Finish(w.rels)
		r := w.result(mustRun(t, g, w.rels, core.Options{Workers: 1}))
		prefixes := sortedPrefixes(r.resolver)
		allocs = append(allocs, testing.AllocsPerRun(10, func() {
			if _, err := r.serveSnapshot(prefixes); err != nil {
				t.Fatal(err)
			}
		}))
		ifaces = append(ifaces, float64(r.NumInterfaces()))
	}
	if ifaces[0] == ifaces[1] {
		t.Fatalf("both graphs have %v interfaces; the test needs two sizes", ifaces[0])
	}
	if allocs[0] != allocs[1] && !raceEnabled {
		t.Errorf("building a snapshot allocates %v times over %v interfaces and %v over %v, want one count",
			allocs[0], ifaces[0], allocs[1], ifaces[1])
	}
	t.Logf("%v and %v allocations at %v and %v interfaces", allocs[0], allocs[1], ifaces[0], ifaces[1])
}

// linkLabelRank orders link confidence labels nexthop > echo >
// multihop: the oracle's own copy of the order, so it shares no code with
// the builder it checks.
func linkLabelRank(label string) int {
	switch label {
	case "N":
		return 3
	case "E":
		return 2
	case "M":
		return 1
	default:
		return 0
	}
}
