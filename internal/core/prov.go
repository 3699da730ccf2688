package core

import (
	"repro/internal/asn"
	"repro/internal/obs"
	"repro/internal/prov"
)

// provCollector is the engine's in-flight decision provenance: one flat
// record per router (indexed by router ID) and one rule byte per
// interface (indexed by the graph's sorted-address order). Shards write
// disjoint index ranges — the same ranges they annotate — so collection
// needs no synchronization and, like the annotations themselves, is
// byte-identical at every worker count. prevRouters double-buffers the
// router records across one iteration so the step-3 cancellation
// rollback can restore provenance alongside the annotations it rolls
// back.
type provCollector struct {
	routers     []prov.Record
	ifaces      []prov.IfaceRule
	prevRouters []prov.Record
}

func newProvCollector(g *Graph) *provCollector {
	return &provCollector{
		routers:     make([]prov.Record, len(g.Routers)),
		ifaces:      make([]prov.IfaceRule, len(g.sortedIfaces)),
		prevRouters: make([]prov.Record, len(g.Routers)),
	}
}

// snapshot commits the current router records as the rollback target
// for the iteration about to run (one flat copy; trivial next to the
// annotation passes it brackets).
//
//lint:hotpath
func (pc *provCollector) snapshot() {
	copy(pc.prevRouters, pc.routers)
}

// rollback restores the records snapshot took, mirroring the
// annotation rollback after a step-3 cancellation.
//
//lint:hotpath
func (pc *provCollector) rollback() {
	copy(pc.routers, pc.prevRouters)
}

// artifact freezes the collected provenance into the serializable form:
// final annotations joined with their records, interfaces in sorted
// order pointing at their router's index.
func (pc *provCollector) artifact(g *Graph, res *Result) *prov.Artifact {
	a := &prov.Artifact{
		Iterations:  res.Iterations,
		Converged:   res.Converged,
		Interrupted: res.Interrupted,
		CycleLength: res.CycleLength,
		Routers:     make([]prov.RouterRec, len(g.Routers)),
		Ifaces:      make([]prov.Iface, len(g.sortedIfaces)),
	}
	for i, r := range g.Routers {
		a.Routers[i] = prov.RouterRec{
			Annotation: r.Annotation,
			LastHop:    r.LastHop,
			Record:     pc.routers[i],
		}
	}
	for i, ifc := range g.sortedIfaces {
		a.Ifaces[i] = prov.Iface{
			Addr:       ifc.Addr,
			Origin:     ifc.Origin,
			Annotation: ifc.Annotation,
			Router:     int32(ifc.Router.ID),
			Rule:       pc.ifaces[i],
		}
	}
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
