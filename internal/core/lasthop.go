package core

import (
	"repro/internal/asn"
	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/shard"
)

// lasthopTally holds prefetched atomic counter handles for the phase-2
// branch counts (which clause of §5.1/Algorithm 1 decided each router).
// The handles are nil-safe no-ops when no recorder is attached, and
// atomic otherwise, so the sharded annotation pass updates them from
// every worker without locks.
type lasthopTally struct {
	emptyDest, withDest *obs.Counter

	// §5.1 (no destination evidence) branches.
	emptyNoOrigin, emptySingleOrigin *obs.Counter
	emptyRelated, emptyOutside       *obs.Counter
	emptyVote                        *obs.Counter

	// Algorithm 1 (§5.2) branches.
	alg1Overlap, alg1DestRel *obs.Counter
	alg1Bridge, alg1Smallest *obs.Counter
}

func newLasthopTally(rec *obs.Recorder) *lasthopTally {
	return &lasthopTally{
		emptyDest:         rec.Counter("lasthop.empty_dest"),
		withDest:          rec.Counter("lasthop.with_dest"),
		emptyNoOrigin:     rec.Counter("lasthop.empty.no_origin"),
		emptySingleOrigin: rec.Counter("lasthop.empty.single_origin"),
		emptyRelated:      rec.Counter("lasthop.empty.related_in_set"),
		emptyOutside:      rec.Counter("lasthop.empty.related_outside"),
		emptyVote:         rec.Counter("lasthop.empty.majority_vote"),
		alg1Overlap:       rec.Counter("lasthop.alg1.origin_dest_overlap"),
		alg1DestRel:       rec.Counter("lasthop.alg1.dest_with_rel"),
		alg1Bridge:        rec.Counter("lasthop.alg1.bridge_as"),
		alg1Smallest:      rec.Counter("lasthop.alg1.smallest_cone"),
	}
}

// annotateLastHops implements phase 2 (paper §5): every IR without
// outgoing links is annotated from its origin-AS set and destination-AS
// set. These annotations are frozen — the refinement loop never revises
// them (§3.3). Each last-hop annotation reads only the router's own
// static sets and the oracle, so the pass shards across workers with no
// snapshot needed and a worker-count-independent outcome.
func annotateLastHops(g *Graph, rels RelationshipOracle, opts Options) {
	t := newLasthopTally(opts.Recorder)
	shard.For(len(g.Routers), opts.Workers, func(lo, hi int) {
		for _, r := range g.Routers[lo:hi] {
			if r.LastHop {
				r.Annotation = annotateLastHop(r, rels, opts, t, nil)
			}
		}
	})
}

// annotateLastHop is last-hop router r's §5 annotation. A non-nil pr
// receives the branch that decided it.
func annotateLastHop(r *Router, rels RelationshipOracle, opts Options, t *lasthopTally, pr *prov.Record) asn.ASN {
	if r.DestASes.Len() == 0 || opts.DisableLastHopDest {
		t.emptyDest.Inc()
		return annotateEmptyDest(r, rels, t, pr)
	}
	t.withDest.Inc()
	return annotateWithDest(r, rels, t, pr)
}

// annotateEmptyDest handles §5.1: the IR's interfaces were only seen in
// Echo Replies (or the destination heuristic is ablated), so only the
// origin-AS set is available.
func annotateEmptyDest(r *Router, rels RelationshipOracle, t *lasthopTally, pr *prov.Record) asn.ASN {
	origins := r.OriginSet
	switch len(origins) {
	case 0:
		t.emptyNoOrigin.Inc()
		setRule(pr, prov.RuleLHNoOrigin)
		return asn.None
	case 1:
		t.emptySingleOrigin.Inc()
		setRule(pr, prov.RuleLHSingleOrigin)
		return origins[0]
	}
	// ASes in the set with a relationship to all other ASes in the set;
	// tie → smallest customer cone (the inferred customer).
	var related []asn.ASN
	for _, a := range origins {
		all := true
		for _, b := range origins {
			if a != b && !rels.HasRelationship(a, b) {
				all = false
				break
			}
		}
		if all {
			related = append(related, a)
		}
	}
	if len(related) > 0 {
		t.emptyRelated.Inc()
		setRule(pr, prov.RuleLHRelated)
		return rels.SmallestCone(related)
	}
	// An AS outside the set with a relationship to every member: it is
	// among the first member's neighbours, under one relationship or more.
	var outside asn.SmallSet
	for _, nbrs := range [...]asn.SmallSet{rels.Providers(origins[0]), rels.Customers(origins[0]), rels.Peers(origins[0])} {
		for _, a := range nbrs {
			if origins.Has(a) {
				continue
			}
			all := true
			for _, b := range origins {
				if !rels.HasRelationship(a, b) {
					all = false
					break
				}
			}
			if all {
				outside.Add(a)
			}
		}
	}
	if len(outside) > 0 {
		t.emptyOutside.Inc()
		setRule(pr, prov.RuleLHOutside)
		return rels.SmallestCone(outside)
	}
	// Most interface AS mappings; tie → smallest customer cone.
	t.emptyVote.Inc()
	setRule(pr, prov.RuleLHVote)
	var votes asn.Tally
	for _, i := range r.Interfaces {
		if i.Origin != asn.None {
			votes.Add(i.Origin, 1)
		}
	}
	top, _ := votes.Max(nil)
	a := rels.SmallestCone(top)
	fillTally(pr, votes, a)
	return a
}

// setRule records the winning §5 branch on a last-hop record (nil-safe:
// only the provenance pass asks for one).
func setRule(pr *prov.Record, rule prov.Rule) {
	if pr != nil {
		pr.Rule = rule
	}
}

// annotateWithDest implements Algorithm 1 (§5.2).
func annotateWithDest(r *Router, rels RelationshipOracle, t *lasthopTally, pr *prov.Record) asn.ASN {
	D := r.DestASes
	O := r.OriginSet

	// Line 3: overlap between origin and destination sets. A single
	// overlapping AS wins outright; multiple → smallest customer cone
	// (the AS using a reallocated prefix from the larger one).
	var overlap []asn.ASN
	for _, o := range O {
		if D.Has(o) {
			overlap = append(overlap, o)
		}
	}
	if len(overlap) == 1 {
		t.alg1Overlap.Inc()
		setRule(pr, prov.RuleLHOverlap)
		return overlap[0]
	}
	if len(overlap) > 1 {
		t.alg1Overlap.Inc()
		setRule(pr, prov.RuleLHOverlap)
		return rels.SmallestCone(overlap)
	}

	// Lines 4–6: destination ASes with a relationship to any origin AS;
	// pick the one whose customer cone covers the most destinations
	// (the inferred transit provider for the others).
	var drel []asn.ASN
	for _, d := range D {
		for _, o := range O {
			if rels.HasRelationship(d, o) {
				drel = append(drel, d)
				break
			}
		}
	}
	if len(drel) > 0 {
		t.alg1DestRel.Inc()
		setRule(pr, prov.RuleLHDestRel)
		best, bestCover, bestCone := asn.None, -1, -1
		for _, d := range drel {
			cover := 0
			cone := rels.CustomerCone(d)
			for _, x := range D {
				if cone.Has(x) {
					cover++
				}
			}
			sz := rels.ConeSize(d)
			if cover > bestCover ||
				(cover == bestCover && sz > bestCone) ||
				(cover == bestCover && sz == bestCone && d < best) {
				best, bestCover, bestCone = d, cover, sz
			}
		}
		return best
	}

	// Lines 7–10: no relationship between any destination and origin.
	// a = the destination AS with the smallest customer cone.
	a := rels.SmallestCone(D)
	// Look for a bridge AS: a provider of a that is also a customer of
	// some origin AS. Exactly one such AS → use it.
	if n, bridge := bridges(rels, a, O); n == 1 {
		t.alg1Bridge.Inc()
		setRule(pr, prov.RuleLHBridge)
		return bridge
	}
	t.alg1Smallest.Inc()
	setRule(pr, prov.RuleLHSmallest)
	return a
}
