package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/asn"
	"repro/internal/obs"
)

// tallyOps is one seeded sequence of increments: AS % 8, so entries
// collide, and N ∈ [-2, 3], so counts fall to and below zero.
type tallyOps []struct {
	A uint8
	N uint8
}

// TestTallyMatchesCounterModel holds tally to asn.Counter (with the
// delete-at-≤-0 the map-based vote applied by hand) over seeded random
// increment sequences: after every step the entries are ascending and
// duplicate-free, every count agrees, and max equals Counter.Max.
func TestTallyMatchesCounterModel(t *testing.T) {
	f := func(ops tallyOps) bool {
		var got tally
		model := make(asn.Counter)
		var top []asn.ASN
		for _, op := range ops {
			a, n := asn.ASN(op.A%8), int(op.N%6)-2
			got.add(a, int32(n))
			model.Inc(a, n)
			if model[a] <= 0 {
				delete(model, a)
			}
			for i := 1; i < len(got); i++ {
				if got[i-1].as >= got[i].as {
					return false
				}
			}
			if len(got) != len(model) {
				return false
			}
			for v := asn.ASN(0); v < 9; v++ {
				if int(got.count(v)) != model[v] {
					return false
				}
			}
			wantTop, wantBest := model.Max()
			var best int32
			top, best = got.max(top)
			if !slices.Equal(top, wantTop) || int(best) != wantBest {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(26))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestVoteAllocatesNothing: on a warmed scratch, with no provenance
// record to fill, re-annotating every voting router of the bench campaign
// allocates nothing.
func TestVoteAllocatesNothing(t *testing.T) {
	e, traces := campaign(t, 2018, 20)
	e.traces = traces
	g := e.graph()
	mustRun(t, g, e.rels, Options{Workers: 1})
	sc := new(voteScratch)
	var it iterTally
	pass := func() {
		for _, r := range g.Routers {
			if !r.LastHop {
				annotateRouter(r, e.rels, Options{}, &it, sc, nil)
			}
		}
	}
	pass()
	if n := testing.AllocsPerRun(5, pass); n != 0 {
		t.Errorf("a router pass over a warmed scratch: %.0f allocations, want 0", n)
	}
}

// TestLongTailVoteMatchesOracle puts three routers the campaigns do not
// produce through the oracle comparison.
//
// 6.0.0.9 (origin 600) has 66 links into 64 subsequent ASes, 1001 and
// 1002 — peers of 600 — tied at three votes each, and two links into a
// /24 of its own space whose routers belong to its customer 700: §6.1.2
// moves both votes off 600, whose count falls to zero and is deleted
// before the interface vote puts it back.
//
// 1.0.0.9 / 1.5.0.9 (origins 100 and 150) has, from the second iteration,
// two links through 1.5.0.9 that vote 800 and are moved to 100. 800 keeps
// four votes from links through 1.0.0.9, whose origin has no relationship
// with it; only the moved links' origin, 150, does. The moved links still
// back 800, so the restricted election admits it and it beats 900's five
// votes; a vote that forgot them would elect 900.
//
// 3.0.0.9 / 3.5.0.9 / 3.7.0.9 (origins 300, 350, 370) elects 3800, which
// none of them knows, so §6.1.5 looks for a bridge. 3800's links run
// through 3.5.0.9, and neither of its providers is a customer of 350: the
// search falls back to the origin set, finds both (3801 under 300, 3803
// under 370) and keeps 3800. From the second iteration two links through
// 3.0.0.9 vote 3800 and are moved to 350; their origin, 300, still backs
// 3800, so 3801 is the only bridge and takes the router. A vote that
// forgot the moved links would stay on 3800.
func TestLongTailVoteMatchesOracle(t *testing.T) {
	e := newEnv(t)

	e.announce("6.0.0.0/16", 600)
	e.announce("7.0.0.0/16", 700)
	e.rels.AddP2C(600, 700)
	e.rels.AddP2P(600, 1001)
	e.rels.AddP2P(600, 1002)
	for k := 1; k <= 64; k++ {
		e.announce(fmt.Sprintf("20.%d.0.0/16", k), uint32(1000+k))
		links := 1
		if k <= 2 {
			links = 3
		}
		for n := 1; n <= links; n++ {
			e.trace(fmt.Sprintf("20.%d.9.%d", k, n), "6.0.0.9", fmt.Sprintf("20.%d.0.%d", k, n))
		}
	}
	e.trace("7.0.0.1", "6.0.0.9", "6.0.1.1")
	e.trace("7.0.0.2", "6.0.0.9", "6.0.1.2")

	e.announce("1.0.0.0/16", 100)
	e.announce("1.5.0.0/16", 150)
	e.announce("8.0.0.0/16", 800)
	e.announce("90.0.0.0/16", 900)
	e.rels.AddP2C(150, 100)
	e.rels.AddP2P(150, 800)
	e.aliases.Add(addr("1.0.0.9"), addr("1.5.0.9"))
	for n := 1; n <= 4; n++ {
		e.trace(fmt.Sprintf("8.0.9.%d", n), "1.0.0.9", fmt.Sprintf("8.0.0.%d", n))
	}
	e.trace("1.0.2.1", "1.5.0.9", "1.0.1.1")
	e.trace("1.0.2.2", "1.5.0.9", "1.0.1.2")
	// 9.9.0.n and 9.9.1.n are unannounced: the last hop takes 900 from
	// its destination, the hop before it in iteration 1, and 1.0.0.9's
	// links to that hop vote 900 from iteration 2.
	for n := 1; n <= 5; n++ {
		e.trace(fmt.Sprintf("90.0.0.%d", n), "1.0.0.9", fmt.Sprintf("9.9.0.%d", n), fmt.Sprintf("9.9.1.%d", n))
	}

	e.announce("3.0.0.0/16", 300)
	e.announce("3.5.0.0/16", 350)
	e.announce("3.7.0.0/16", 370)
	e.announce("38.0.0.0/16", 3800)
	e.rels.AddP2C(300, 350)
	e.rels.AddP2C(300, 3801)
	e.rels.AddP2C(370, 3803)
	e.rels.AddP2C(3801, 3800)
	e.rels.AddP2C(3803, 3800)
	e.aliases.Add(addr("3.0.0.9"), addr("3.5.0.9"))
	e.aliases.Add(addr("3.0.0.9"), addr("3.7.0.9"))
	for n := 1; n <= 4; n++ {
		e.trace(fmt.Sprintf("38.0.9.%d", n), "3.5.0.9", fmt.Sprintf("38.0.0.%d", n))
	}
	e.trace("3.5.2.1", "3.0.0.9", "3.5.1.1")
	e.trace("3.5.2.2", "3.0.0.9", "3.5.1.2")
	e.trace("3.7.9.9", "3.7.0.9")

	g := e.graph()
	if n := len(iface(t, g, "6.0.0.9").Router.voteLinks); n != 70 {
		t.Fatalf("6.0.0.9 votes over %d links, want 70", n)
	}
	checkRefineAgainstOracle(t, g, e.rels)

	g.ResetAnnotations()
	rec := obs.New()
	res := mustRun(t, g, e.rels, Options{Workers: 1, Recorder: rec})
	wantOperator(t, res, "6.0.0.9", 1001)
	wantOperator(t, res, "1.0.0.9", 800)
	wantOperator(t, res, "3.0.0.9", 3801)
	// Two moves at 6.0.0.9 every iteration, two each at 1.0.0.9 and
	// 3.0.0.9 from the second.
	if got, want := res.Report.Counters["refine.heur.reallocated"], int64(6*res.Iterations-4); got != want {
		t.Errorf("refine.heur.reallocated = %d over %d iterations, want %d", got, res.Iterations, want)
	}
}
