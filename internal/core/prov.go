package core

import (
	"fmt"

	"repro/internal/asn"
	"repro/internal/ckpt"
	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/shard"
)

// explain derives the run's decision provenance from what it committed:
// history holds the change set of each of the res.Iterations iterations,
// and g the state of the last, N. Each pass is a pure function of the
// state before it, so evaluating every router once against state N-1 and
// every interface once against the routers of state N, asking each for
// its record, explains state N: an entity the loop skipped would have
// evaluated to what it did last, and a clean one a delta run replayed to
// what a full run evaluated. The artifact is thus one function of the
// trajectory, however it was reached or cut short, and the loop never
// sees provenance.
//
// history is folded onto the iteration-0 state — last hops annotated,
// other routers none, interfaces at their origin — up to state N-1, which
// also gives each router's last-change iteration. §5 is evaluated again
// over the last hops, which is all a run with no committed iteration has
// to explain. Every winner must be the committed annotation: a mismatch
// is a broken engine and panics.
func explain(g *Graph, rels RelationshipOracle, opts Options, history []ckpt.IterDelta, res *Result) *prov.Artifact {
	n := res.Iterations
	a := &prov.Artifact{
		Iterations:  n,
		Converged:   res.Converged,
		Interrupted: res.Interrupted,
		CycleLength: res.CycleLength,
		Routers:     make([]prov.RouterRec, len(g.Routers)),
		Ifaces:      make([]prov.Iface, len(g.Interfaces)),
	}
	for idx, r := range g.Routers {
		a.Routers[idx].Annotation, a.Routers[idx].LastHop = r.Annotation, r.LastHop
		r.prevAnnotation = asn.None
		if r.LastHop {
			r.prevAnnotation = r.Annotation
		}
	}
	for pos, i := range g.Interfaces {
		a.Ifaces[pos] = prov.Iface{Addr: i.Addr, Origin: i.Origin, Annotation: i.Annotation, Router: int32(i.Router.ID)}
		i.Annotation = i.Origin
	}
	for k, d := range history {
		for _, c := range d.Routers {
			a.Routers[c.Idx].Iter = int32(k + 1)
		}
	}
	for _, d := range history[:max(n-1, 0)] {
		for _, c := range d.Routers {
			g.Routers[c.Idx].prevAnnotation = asn.ASN(c.Ann)
		}
		for _, c := range d.Ifaces {
			g.Interfaces[c.Idx].Annotation = asn.ASN(c.Ann)
		}
	}

	lt := newLasthopTally(nil)
	shard.For(len(g.Routers), opts.Workers, func(lo, hi int) {
		var t iterTally
		sc := new(voteScratch)
		for idx := lo; idx < hi; idx++ {
			r, pr := g.Routers[idx], &a.Routers[idx].Record
			var w asn.ASN
			switch {
			case r.LastHop:
				w = annotateLastHop(r, rels, opts, lt, pr)
				pr.Winner = w
			case n == 0:
				continue
			default:
				w = annotateRouter(r, rels, opts, &t, sc, pr)
			}
			if w != r.Annotation {
				panic(fmt.Sprintf("core: router %d evaluates to %v against the state before iteration %d, which committed %v", idx, w, n, r.Annotation))
			}
		}
	})
	shard.For(len(g.Interfaces), opts.Workers, func(lo, hi int) {
		sc := new(voteScratch)
		for pos := lo; pos < hi; pos++ {
			i, f := g.Interfaces[pos], &a.Ifaces[pos]
			i.Annotation = f.Annotation
			if n == 0 {
				continue
			}
			annotateInterface(i, rels, sc, &f.Rule)
			if i.Annotation != f.Annotation {
				panic(fmt.Sprintf("core: interface %s evaluates to %v in iteration %d, which committed %v", i.Addr, i.Annotation, n, f.Annotation))
			}
		}
	})
	return a
}

// fillTally completes a record's election shape from the final vote
// tally: the winner's count and the strongest other candidate — the most
// votes, then the smallest ASN, which an ascending walk meets first.
//
//lint:hotpath
func fillTally(pr *prov.Record, votes tally, winner asn.ASN) {
	if pr == nil {
		return
	}
	pr.Winner = winner
	pr.WinnerVotes = votes.count(winner)
	pr.RunnerUp, pr.RunnerUpVotes = asn.None, 0
	for _, v := range votes {
		if v.as != winner && v.n > pr.RunnerUpVotes {
			pr.RunnerUp, pr.RunnerUpVotes = v.as, v.n
		}
	}
}

// recordProvAggregates surfaces the artifact's aggregate shape through
// the recorder: router/interface totals, a per-rule histogram, and the
// per-rule flip counts (routers whose annotation still changed after
// their first election — the update-rate signal `explain -diff` drills
// into).
func recordProvAggregates(rec *obs.Recorder, a *prov.Artifact) {
	rec.Counter("prov.routers").Add(int64(len(a.Routers)))
	rec.Counter("prov.interfaces").Add(int64(len(a.Ifaces)))
	counts := a.RuleCounts()
	for r := prov.RuleNone; r < prov.NumRules; r++ {
		if counts[r] > 0 {
			rec.Counter("prov.rule." + r.String()).Add(int64(counts[r]))
		}
	}
	flipped := int64(0)
	var flipsByRule [prov.NumRules]int64
	for i := range a.Routers {
		if a.Routers[i].Iter > 1 {
			flipped++
			r := a.Routers[i].Rule
			if r >= prov.NumRules {
				r = prov.RuleNone
			}
			flipsByRule[r]++
		}
	}
	rec.Counter("prov.flipped_routers").Add(flipped)
	for r := prov.RuleNone; r < prov.NumRules; r++ {
		if flipsByRule[r] > 0 {
			rec.Counter("prov.flips." + r.String()).Add(flipsByRule[r])
		}
	}
}
