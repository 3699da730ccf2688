package core

// The append oracle: a Builder that outlives Finish must grow the graph
// a new Builder would build from the same traces, say truthfully what
// each append touched, and hand the delta engine what it needs to land
// on the from-scratch run — for any way of cutting a corpus into a base
// and batches, absorb after absorb.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/asn"
	"repro/internal/ckpt"
	"repro/internal/obs"
	"repro/internal/traceroute"
)

// overApprox accumulates, over every append a test makes, how many
// routers and interfaces the Builder touched against how many the
// oracle's digests say changed.
type overApprox struct {
	touchedR, dirtyR, touchedI, dirtyI int
}

func (o overApprox) String() string {
	pct := func(t, d int) float64 {
		if d == 0 {
			return 0
		}
		return 100 * float64(t-d) / float64(d)
	}
	return fmt.Sprintf("touched %d routers for %d digest-dirty (+%.1f%%), %d interfaces for %d (+%.1f%%)",
		o.touchedR, o.dirtyR, pct(o.touchedR, o.dirtyR), o.touchedI, o.dirtyI, pct(o.touchedI, o.dirtyI))
}

// checkpointed runs fn with a checkpoint directory of its own and
// returns the run's outcome with the final snapshot.
func checkpointed(t *testing.T, workers int, fn func(Options) (*Result, error)) (string, *ckpt.State) {
	t.Helper()
	dir := t.TempDir()
	res, err := fn(Options{Workers: workers, Checkpoint: &ckpt.Config{Dir: dir, InputDigest: 7}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := ckpt.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	return dumpAnnotations(res), st
}

// SameTrajectory hands sameTrajectory to equivalence_test.go (package
// core_test, see OracleRefine).
var SameTrajectory = sameTrajectory

// sameTrajectory reports the first difference between what two runs
// committed iteration by iteration, or "".
func sameTrajectory(got, want *ckpt.State) string {
	switch {
	case got.GraphDigest != want.GraphDigest:
		return "graph digests differ"
	case got.Iteration != want.Iteration || got.Converged != want.Converged || got.CycleLength != want.CycleLength:
		return fmt.Sprintf("stopped at %d (converged %v, cycle %d), want %d (%v, %d)",
			got.Iteration, got.Converged, got.CycleLength, want.Iteration, want.Converged, want.CycleLength)
	case !slices.Equal(got.Routers, want.Routers) || !slices.Equal(got.Ifaces, want.Ifaces):
		return "final annotations differ"
	}
	for k := range want.History {
		if !slices.Equal(got.History[k].Routers, want.History[k].Routers) || !slices.Equal(got.History[k].Ifaces, want.History[k].Ifaces) {
			return fmt.Sprintf("iteration %d committed a different change set", k+1)
		}
	}
	return ""
}

// checkAppendSession builds parts[0] on a new Builder, runs it, then
// appends parts[1:] one by one. After every append it holds the grown
// graph to a from-scratch build of the same traces, the touched set to
// the digest oracle — a superset of it for safety, equal to it for
// checkpoint bytes — and a delta run at workers 1 and 4 — stacked on the
// previous step's own checkpoint — to a from-scratch run: annotations,
// stopping point and every iteration's change set. Delta and from-scratch
// runs are one loop under two inputs, so each delta result is also held
// to oracleRefine over the from-scratch graph, which shares none of it.
// It returns the Builder, the graph and each append's record for
// case-specific checks.
func checkAppendSession(t *testing.T, e *testEnv, parts [][]*traceroute.Trace, workers int, over *overApprox) (*Builder, *Graph, []*Append) {
	t.Helper()
	b := NewBuilder(e.resolver, e.aliases)
	b.Workers = workers
	b.AddTraces(parts[0])
	g := b.Finish(e.rels)
	all := slices.Clone(parts[0])
	if d := diffGraphs(g, buildChunk(e, all), true, true); d != "" {
		t.Fatalf("first build: %s", d)
	}
	_, st := checkpointed(t, workers, func(o Options) (*Result, error) { return RunContext(context.Background(), g, e.rels, o) })

	var apps []*Append
	for k, batch := range parts[1:] {
		step := fmt.Sprintf("append %d of %d (%d traces onto %d)", k+1, len(parts)-1, len(batch), len(all))
		prev := buildChunk(e, all)
		all = append(all, batch...)
		b.AddTraces(batch)
		if b.Finish(e.rels) != g {
			t.Fatalf("%s: Finish returned a different graph", step)
		}
		app := b.LastAppend()
		apps = append(apps, app)
		want := buildChunk(e, all)

		// The graph: structure, orders, caches, statistics, digest and the
		// position every interface knows.
		g.ResetAnnotations()
		if d := diffGraphs(g, want, true, true); d != "" {
			t.Fatalf("%s: appended graph differs from the from-scratch graph: %s", step, d)
		}
		if g.digest != graphDigest(g) || g.digest != want.digest {
			t.Fatalf("%s: graph digest %016x, recomputed %016x, from-scratch %016x", step, g.digest, graphDigest(g), want.digest)
		}
		for pos, i := range g.Interfaces {
			if int(i.pos) != pos || g.Interface(i.Addr) != i {
				t.Fatalf("%s: sorted interface %d (%v) is out of place", step, pos, i.Addr)
			}
		}

		// The append record: position maps equal to the two-graph diff's,
		// touched set ⊇ what the digests say changed.
		seed := oracleDeltaSeed(want, prev)
		if !slices.Equal(app.routerPos, seed.baseToMergedR) || !slices.Equal(app.ifacePos, seed.baseToMergedI) {
			t.Fatalf("%s: position maps differ from the oracle's", step)
		}
		touchedR, touchedI := make([]bool, len(g.Routers)), make([]bool, len(g.Interfaces))
		for _, id := range app.routers {
			touchedR[id] = true
		}
		for _, pos := range app.ifaces {
			touchedI[pos] = true
		}
		for id, dirty := range seed.rdirty {
			if dirty {
				over.dirtyR++
				if !touchedR[id] {
					t.Errorf("%s: router %d (%v) changed structurally and was not touched", step, id, g.Routers[id].Interfaces[0].Addr)
				}
			}
		}
		for pos, dirty := range seed.idirty {
			if dirty {
				over.dirtyI++
				if !touchedI[pos] {
					t.Errorf("%s: interface %v changed structurally and was not touched", step, g.Interfaces[pos].Addr)
				}
			}
		}
		over.touchedR += len(app.routers)
		over.touchedI += len(app.ifaces)
		// The other direction is not about safety — a touched set that
		// over-approximates only shrinks the replayed region — but every
		// marking site is exact today, and the convergence trace inside a
		// checkpoint tallies what a delta run recomputed: exactness is
		// what keeps those bytes what the two-graph diff's were.
		for _, id := range app.routers {
			if !seed.rdirty[id] {
				t.Errorf("%s: router %d (%v) was touched and its structure did not change", step, id, g.Routers[id].Interfaces[0].Addr)
			}
		}
		for _, pos := range app.ifaces {
			if !seed.idirty[pos] {
				t.Errorf("%s: interface %v was touched and its structure did not change", step, g.Interfaces[pos].Addr)
			}
		}

		// The delta run, at both worker counts over the one graph.
		wantOut, wantState := checkpointed(t, 1, func(o Options) (*Result, error) { return RunContext(context.Background(), want, e.rels, o) })
		want.ResetAnnotations()
		oracleOut := dumpAnnotations(oracleRefine(want, e.rels, Options{}))
		var next *ckpt.State
		for _, w := range []int{1, 4} {
			gotOut, gotState := checkpointed(t, w, func(o Options) (*Result, error) {
				return RunDeltaContext(context.Background(), g, app, st, e.rels, o)
			})
			if gotOut != wantOut {
				t.Fatalf("%s: delta run at %d worker(s) differs from the from-scratch run:\n got %.80q\nwant %.80q", step, w, gotOut, wantOut)
			}
			if gotOut != oracleOut {
				t.Fatalf("%s: delta run at %d worker(s) differs from the oracle's from-scratch refinement:\n got %.80q\nwant %.80q", step, w, gotOut, oracleOut)
			}
			if d := sameTrajectory(gotState, wantState); d != "" {
				t.Fatalf("%s: delta run at %d worker(s): %s", step, w, d)
			}
			next = gotState
		}
		st = next
	}
	return b, g, apps
}

// randomPartition cuts traces into a base and one to six batches, one of
// three ways: at contiguous cut points, by dealing each trace to a part
// at random (most to the base), or by holding vantage points out of the
// base. A batch may come out empty.
func randomPartition(rng *rand.Rand, traces []*traceroute.Trace) [][]*traceroute.Trace {
	k := 1 + rng.Intn(6)
	parts := make([][]*traceroute.Trace, 1+k)
	switch rng.Intn(3) {
	case 0:
		cuts := []int{len(traces)/2 + rng.Intn(len(traces)/2), len(traces)}
		for len(cuts) < k+1 {
			cuts = append(cuts, cuts[0]+rng.Intn(len(traces)-cuts[0]+1))
		}
		slices.Sort(cuts)
		lo := 0
		for p, hi := range cuts {
			parts[p] = traces[lo:hi]
			lo = hi
		}
	case 1:
		share := 0.5 + 0.45*rng.Float64()
		for _, tr := range traces {
			p := 0
			if rng.Float64() >= share {
				p = 1 + rng.Intn(k)
			}
			parts[p] = append(parts[p], tr)
		}
	default:
		where := map[string]int{}
		for _, tr := range traces {
			p, ok := where[tr.VP]
			if !ok {
				if len(where) >= 3 && rng.Intn(2) == 0 {
					p = 1 + rng.Intn(k)
				}
				where[tr.VP] = p
			}
			parts[p] = append(parts[p], tr)
		}
	}
	return parts
}

// TestAppendMatchesScratch is the property: however a corpus is cut into
// a base and batches, growing one graph batch by batch is building it
// from scratch, and a delta run over each append is the from-scratch
// run. It reports how far the touched sets over-approximate.
func TestAppendMatchesScratch(t *testing.T) {
	type corpus struct {
		e      *testEnv
		traces []*traceroute.Trace
	}
	var corpora []corpus
	for _, seed := range []int64{1, 2018} {
		e, traces := campaign(t, seed, 12)
		corpora = append(corpora, corpus{e, traces},
			corpus{&testEnv{resolver: e.resolver, rels: e.rels}, traces}) // and with every interface its own IR
	}
	var over overApprox
	appends := 0
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := corpora[rng.Intn(len(corpora))]
		parts := randomPartition(rng, c.traces)
		_, _, apps := checkAppendSession(t, c.e, parts, 1+3*rng.Intn(2), &over)
		appends += len(apps)
		return !t.Failed()
	}
	count := 40
	if testing.Short() {
		count = 8
	}
	if err := quick.Check(property, &quick.Config{MaxCount: count, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d appends: %v", appends, over)
}

// appendCases are hand-built sessions, one per way an append is not a
// plain accumulation, each a base and its batches over a world of its
// own. check sees the Builder's graph after the last append and every
// append's record.
var appendCases = []struct {
	name  string
	world func(e *testEnv)
	parts [][][]string // part → trace → destination, then hops (testEnv.trace)
	check func(t *testing.T, g *Graph, apps []*Append)
}{
	{
		// (a) §4.4 cleanup deletes from the set it judges. 1.0.0.50 sees
		// destinations in its own AS100 and in AS500, and is cleaned to
		// {500}; a third destination AS voids the cleanup, and the set
		// must come back whole — {100, 500, 600}, not {500, 600}.
		name:  "cleanup voided by a third destination AS",
		world: reallocWorld,
		parts: [][][]string{
			{{"5.0.0.9", "1.0.0.50", "5.0.0.1"}, {"1.0.0.200", "1.0.0.50", "1.0.0.201"}},
			{{"6.0.0.9", "1.0.0.50", "6.0.0.1"}},
		},
		check: func(t *testing.T, g *Graph, apps []*Append) {
			if got := iface(t, g, "1.0.0.50").DestASes; !got.Equal(asn.SmallSet{100, 500, 600}) {
				t.Errorf("destination ASes %v, want the set as observed: [100 500 600]", got)
			}
		},
	},
	{
		// (a), the other directions: the second destination AS arrives in
		// a batch and the cleanup applies then; seeing the removed AS
		// again changes nothing and touches nothing.
		name:  "cleanup applied by a later batch, removed AS seen again",
		world: reallocWorld,
		parts: [][][]string{
			{{"5.0.0.9", "1.0.0.50", "5.0.0.1"}},
			{{"1.0.0.200", "1.0.0.50", "1.0.0.201"}},
			{{"1.0.0.200", "1.0.0.50", "1.0.0.201"}},
		},
		check: func(t *testing.T, g *Graph, apps []*Append) {
			if got := iface(t, g, "1.0.0.50").DestASes; !got.Equal(asn.SmallSet{500}) {
				t.Errorf("destination ASes %v, want the reallocating provider removed: [500]", got)
			}
			if n := len(apps[1].routers) + len(apps[1].ifaces); n != 0 {
				t.Errorf("re-observing the removed destination AS touched %d entities", n)
			}
		},
	},
	{
		// (a), and the aggregate: the base leaves 1.0.0.50 and 1.0.0.60,
		// and so their routers, with {100}; the batch's AS500 makes the
		// cleanup remove 100, which the routers' aggregates must lose
		// too — 1.0.0.50's, which also gains a link, and 1.0.0.60's, a
		// last hop that nothing else in the batch changes.
		name:  "cleanup removes an AS already aggregated",
		world: reallocWorld,
		parts: [][][]string{
			{{"1.0.0.200", "1.0.0.50", "1.0.0.201"}, {"1.0.0.200", "7.0.0.1", "1.0.0.60"}},
			{{"5.0.0.9", "1.0.0.50", "5.0.0.1"}, {"5.0.0.9", "7.0.0.1", "1.0.0.60"}},
		},
		check: func(t *testing.T, g *Graph, apps []*Append) {
			for _, a := range []string{"1.0.0.50", "1.0.0.60"} {
				r := iface(t, g, a).Router
				if !r.DestASes.Equal(asn.SmallSet{500}) || !slices.Contains(apps[0].routers, r.ID) {
					t.Errorf("router of %s: destination ASes %v, touched %v; want [500] and touched",
						a, r.DestASes, slices.Contains(apps[0].routers, r.ID))
				}
			}
		},
	},
	{
		// (b) The link table is keyed by the source router. 6.0.0.1 is
		// created first and sorts second, so its ID changes at the first
		// Finish; the batch walks the same link again, and must find it.
		name:  "sorted router IDs move under the link table",
		world: plainWorld,
		parts: [][][]string{
			{{"9.9.9.9", "6.0.0.1", "5.0.0.1"}},
			{{"9.9.9.9", "6.0.0.1", "5.0.0.1"}, {"9.9.9.9", "1.0.0.1", "6.0.0.1"}},
		},
		check: func(t *testing.T, g *Graph, apps []*Append) {
			if n := len(iface(t, g, "5.0.0.1").InLinks); n != 1 {
				t.Errorf("5.0.0.1 has %d in-links, want the one link walked twice", n)
			}
		},
	},
	{
		// (c) 1.0.0.9 and 1.0.0.1 are one router, known by 1.0.0.9 until
		// the batch sees 1.0.0.1. Its representative, and so its place
		// ahead of 1.0.0.5's router, its member's owner and its link
		// target's voter all change.
		name: "a smaller alias arrives in a later batch",
		world: func(e *testEnv) {
			plainWorld(e)
			e.aliases.Add(addr("1.0.0.9"), addr("1.0.0.1"))
		},
		parts: [][][]string{
			{{"9.9.9.9", "1.0.0.5", "1.0.0.9", "2.0.0.1"}},
			{{"9.9.9.9", "1.0.0.1"}},
		},
		check: func(t *testing.T, g *Graph, apps []*Append) {
			r := iface(t, g, "1.0.0.9").Router
			if r.ID != 0 || r.Interfaces[0].Addr != addr("1.0.0.1") {
				t.Errorf("router of 1.0.0.9 has ID %d and representative %v, want 0 and 1.0.0.1", r.ID, r.Interfaces[0].Addr)
			}
			app := apps[0]
			if !slices.Contains(app.routers, r.ID) {
				t.Error("the router whose representative changed was not touched")
			}
			for _, a := range []string{"1.0.0.9", "2.0.0.1"} {
				if !slices.Contains(app.ifaces, int(iface(t, g, a).pos)) {
					t.Errorf("%s reads the changed representative and was not touched", a)
				}
			}
			if slices.Contains(app.ifaces, int(iface(t, g, "1.0.0.5").pos)) {
				t.Error("1.0.0.5 reads nothing that changed and was touched")
			}
		},
	},
	{
		// (d) 2.0.0.1's router ends the base's only trace; the batch
		// carries on through it.
		name:  "a last hop gains a link",
		world: plainWorld,
		parts: [][][]string{
			{{"9.9.9.9", "1.0.0.1", "2.0.0.1"}},
			{{"9.9.9.9", "1.0.0.1", "2.0.0.1", "3.0.0.1"}},
		},
		check: func(t *testing.T, g *Graph, apps []*Append) {
			r := iface(t, g, "2.0.0.1").Router
			if r.LastHop || len(r.voteLinks) != 1 {
				t.Errorf("router of 2.0.0.1: last hop %v with %d vote links, want a router with one link", r.LastHop, len(r.voteLinks))
			}
			if g.Stats.LastHopIRs != 1 || g.Stats.IRsWithLinks != 2 {
				t.Errorf("stats %+v, want 1 last hop and 2 routers with links", g.Stats)
			}
		},
	},
	{
		// (e) The batch touches one path; the other still carries the
		// base run's converged annotations when the delta run starts, and
		// the trajectory it replays starts from none. checkAppendSession
		// compares every iteration's change set with the from-scratch
		// run's; this case is the smallest graph with a clean corner.
		name:  "a clean corner keeps the previous run's annotations",
		world: plainWorld,
		parts: [][][]string{
			{{"9.9.9.9", "1.0.0.1", "2.0.0.1", "3.0.0.1"}, {"9.9.9.9", "5.0.0.1", "6.0.0.1", "6.0.0.2"}},
			{{"3.0.0.9", "1.0.0.1", "2.0.0.2", "3.0.0.1"}},
		},
		check: func(t *testing.T, g *Graph, apps []*Append) {
			if r := iface(t, g, "5.0.0.1").Router; slices.Contains(apps[0].routers, r.ID) || r.Annotation == asn.None {
				t.Errorf("router of 5.0.0.1: touched %v, annotation %v; want an untouched router the delta run annotated by replay",
					slices.Contains(apps[0].routers, r.ID), r.Annotation)
			}
		},
	},
	{
		name:  "a label climbs M, E, N across three batches",
		world: plainWorld,
		parts: [][][]string{
			{{"9.9.9.9", "1.0.0.1", "*", "3.0.0.1"}},
			{{"9.9.9.9", "1.0.0.1", "3.0.0.1/e"}},
			{{"9.9.9.9", "1.0.0.1", "3.0.0.1"}},
			{{"9.9.9.9", "1.0.0.1", "*", "3.0.0.1"}},
		},
		check: func(t *testing.T, g *Graph, apps []*Append) {
			from, to := iface(t, g, "1.0.0.1"), iface(t, g, "3.0.0.1")
			if l := linkTo(from.Router, to.Addr); l == nil || l.Label != LabelNexthop || g.Stats.LinksNexthop != 1 {
				t.Errorf("link %+v, stats %+v; want the one link at N", l, g.Stats)
			}
			for k, app := range apps[:2] {
				if !slices.Contains(app.routers, from.Router.ID) || !slices.Contains(app.ifaces, int(to.pos)) {
					t.Errorf("upgrade %d did not touch both ends of the link", k+1)
				}
			}
			if n := len(apps[2].routers) + len(apps[2].ifaces); n != 0 {
				t.Errorf("a weaker label touched %d entities", n)
			}
		},
	},
	{
		name:  "a batch of traces already seen",
		world: plainWorld,
		parts: [][][]string{
			{{"9.9.9.9", "1.0.0.1", "2.0.0.1", "3.0.0.1/e"}, {"9.9.9.9", "1.0.0.2", "2.0.0.1", "3.0.0.1"}},
			{{"9.9.9.9", "1.0.0.2", "2.0.0.1", "3.0.0.1"}, {"9.9.9.9", "1.0.0.1", "2.0.0.1", "3.0.0.1/e"}},
		},
		check: func(t *testing.T, g *Graph, apps []*Append) {
			if n := len(apps[0].routers) + len(apps[0].ifaces); n != 0 {
				t.Errorf("duplicate traces touched %d entities", n)
			}
			if g.Stats.Traces != 4 {
				t.Errorf("%d traces counted, want 4", g.Stats.Traces)
			}
		},
	},
}

// plainWorld announces one /24 per first octet, 1–6 and 9, as AS100·octet.
func plainWorld(e *testEnv) {
	for _, o := range []uint32{1, 2, 3, 5, 6, 9} {
		e.announce(fmt.Sprintf("%d.0.0.0/8", o), 100*o)
	}
}

// reallocWorld is TestReallocatedDestCleanup's: provider AS100 with a
// real customer cone, AS500 numbered from nowhere near it and related to
// nobody, and AS600 as a third destination.
func reallocWorld(e *testEnv) {
	e.announce("1.0.0.0/24", 100)
	e.announce("5.0.0.0/24", 500)
	e.announce("6.0.0.0/24", 600)
	for c := uint32(700); c < 707; c++ {
		e.rels.AddP2C(100, asn.ASN(c))
	}
}

func TestAppendCases(t *testing.T) {
	for _, c := range appendCases {
		t.Run(c.name, func(t *testing.T) {
			e := newEnv(t)
			c.world(e)
			var parts [][]*traceroute.Trace
			for _, part := range c.parts {
				n := len(e.traces)
				for _, tr := range part {
					e.trace(tr[0], tr[1:]...)
				}
				parts = append(parts, e.traces[n:])
			}
			var over overApprox
			_, g, apps := checkAppendSession(t, e, parts, 1, &over)
			c.check(t, g, apps)
		})
	}
}

// TestAppendTelemetry: an append is recorded under the names a rebuild
// was — construct-graph with finish-graph inside it, delta-seed, the
// delta.* gauges — plus what it touched, the graph.* counters keep
// reading the graph's totals, and the delta run is as visible as a full
// one: lasthop, delta-seed and refine phases in that order, and a shard
// timing per pass per iteration.
func TestAppendTelemetry(t *testing.T) {
	e, traces := campaign(t, 1, 8)
	cut := len(traces) * 9 / 10
	rec := obs.New()
	b := NewBuilder(e.resolver, e.aliases)
	b.Rec = rec
	g, err := b.BuildContext(context.Background(), traces[:cut], e.rels)
	if err != nil {
		t.Fatal(err)
	}
	_, st := checkpointed(t, 1, func(o Options) (*Result, error) { return RunContext(context.Background(), g, e.rels, o) })
	if _, err := b.BuildContext(context.Background(), traces[cut:], e.rels); err != nil {
		t.Fatal(err)
	}
	app := b.LastAppend()
	if _, err := RunDeltaContext(context.Background(), g, app, st, e.rels, Options{Workers: 1, Recorder: rec}); err != nil {
		t.Fatal(err)
	}
	rep := rec.Report()
	var builds []obs.PhaseReport
	var names []string
	for _, p := range rep.Phases {
		names = append(names, p.Name)
		if p.Name == "construct-graph" {
			builds = append(builds, p)
		}
	}
	if n := len(names); n < 3 || !slices.Equal(names[n-3:], []string{"lasthop", "delta-seed", "refine"}) {
		t.Errorf("phases %v; want the delta run's lasthop, delta-seed, refine last", names)
	}
	iters := rep.Gauges["refine.iterations"]
	if r, i := rep.Histograms["refine.router_shard_ns"].Count, rep.Histograms["refine.iface_shard_ns"].Count; iters == 0 || r != iters || i != iters {
		t.Errorf("%d router and %d interface shard timings over %d iterations at one worker, want one each per iteration", r, i, iters)
	}
	if len(builds) != 2 {
		t.Fatalf("%d construct-graph phases, want one per BuildContext", len(builds))
	}
	appendPhase := builds[1]
	if appendPhase.Notes["appended_traces"] != int64(len(traces)-cut) {
		t.Errorf("appended_traces = %d, want %d", appendPhase.Notes["appended_traces"], len(traces)-cut)
	}
	var finish *obs.PhaseReport
	for k := range appendPhase.Children {
		if appendPhase.Children[k].Name == "finish-graph" {
			finish = &appendPhase.Children[k]
		}
	}
	if finish == nil {
		t.Fatal("the append's construct-graph phase has no finish-graph child")
	}
	if finish.Notes["touched_routers"] != int64(len(app.routers)) || finish.Notes["touched_ifaces"] != int64(len(app.ifaces)) ||
		finish.Notes["interfaces"] != int64(len(g.Interfaces)) {
		t.Errorf("finish-graph notes %v; want touched %d/%d of %d interfaces", finish.Notes, len(app.routers), len(app.ifaces), len(g.Interfaces))
	}
	if rep.Gauges["delta.struct_dirty_routers"] != int64(len(app.routers)) || rep.Gauges["delta.struct_dirty_ifaces"] != int64(len(app.ifaces)) {
		t.Errorf("delta.struct_dirty gauges %d/%d, want the touched set %d/%d",
			rep.Gauges["delta.struct_dirty_routers"], rep.Gauges["delta.struct_dirty_ifaces"], len(app.routers), len(app.ifaces))
	}
	for name, want := range map[string]int{
		"graph.traces": len(traces), "graph.interfaces": len(g.Interfaces), "graph.routers": len(g.Routers),
		"graph.links.nexthop": g.Stats.LinksNexthop, "graph.lasthop_irs": g.Stats.LastHopIRs,
	} {
		if rep.Counters[name] != int64(want) {
			t.Errorf("counter %s = %d after an append, want the graph's total %d", name, rep.Counters[name], want)
		}
	}
}
