package core

import (
	"testing"
)

// Last-hop scenarios (paper §5, Algorithm 1). Each test builds a trace
// set whose final router exercises one branch of the algorithm.

// TestLastHopOverlapSingle: the destination AS equals one of the IR's
// interface origin ASes (Alg. 1 line 3) — e.g. Fig. 7's IR2.
func TestLastHopOverlapSingle(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100)
	e.announce("2.0.0.0/24", 200)
	// Trace destined to AS200 ends at an interface with origin 200.
	e.trace("2.0.0.99", "1.0.0.1", "2.0.0.1")
	res := e.run(Options{})
	wantOperator(t, res, "2.0.0.1", 200)
}

// TestLastHopOverlapMultiple: multiple overlapping ASes → the smallest
// customer cone wins (a customer using a reallocated prefix).
func TestLastHopOverlapMultiple(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100)
	e.announce("2.0.0.0/24", 200)
	e.announce("3.0.0.0/24", 300)
	// Make 200 a transit with a large cone; 300 a stub.
	e.rels.AddP2C(200, 300)
	e.rels.AddP2C(200, 301)
	e.rels.AddP2C(200, 302)
	// The last-hop IR has interfaces in both 200 and 300 space and is
	// crossed by traces destined to both.
	e.aliases.Add(addr("2.0.0.1"), addr("3.0.0.1"))
	e.trace("2.0.0.99", "1.0.0.1", "2.0.0.1")
	e.trace("3.0.0.99", "1.0.0.2", "3.0.0.1")
	res := e.run(Options{})
	wantOperator(t, res, "2.0.0.1", 300)
}

// TestLastHopRelationshipFig7: no overlap, but a destination AS has a
// relationship with an origin AS (Alg. 1 lines 4–6) — Fig. 7's IR3.
func TestLastHopRelationshipFig7(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100)
	e.announce("2.0.0.0/24", 200) // ASB: interface origin
	e.announce("4.0.0.0/24", 400) // ASD: destination with rel to ASB
	e.announce("5.0.0.0/24", 500) // ASE: unrelated destination
	e.rels.AddP2C(200, 400)       // ASD customer of ASB
	// Firewalled edge: traces to D and E end at a B-addressed border.
	e.trace("4.0.0.99", "1.0.0.1", "2.0.0.2")
	e.trace("5.0.0.99", "1.0.0.1", "2.0.0.2")
	res := e.run(Options{})
	wantOperator(t, res, "2.0.0.2", 400)
}

// TestLastHopRelationshipPrefersConeCoverage: multiple related
// destination ASes → the one whose customer cone covers the most
// destinations (Alg. 1 line 6).
func TestLastHopRelationshipPrefersConeCoverage(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100)
	e.announce("2.0.0.0/24", 200)
	e.announce("4.0.0.0/24", 400)
	e.announce("5.0.0.0/24", 500)
	e.announce("6.0.0.0/24", 600)
	e.rels.AddP2C(200, 400)
	e.rels.AddP2C(200, 500)
	e.rels.AddP2C(400, 500) // 400's cone covers 500 too
	e.rels.AddP2C(400, 600)
	e.trace("4.0.0.99", "1.0.0.1", "2.0.0.2")
	e.trace("5.0.0.99", "1.0.0.1", "2.0.0.2")
	e.trace("6.0.0.99", "1.0.0.1", "2.0.0.2")
	res := e.run(Options{})
	// cone(400) ⊇ {400,500,600}; cone(500) covers only itself.
	wantOperator(t, res, "2.0.0.2", 400)
}

// TestLastHopNoRelationshipBridge: no relationship between origins and
// destinations; a unique AS that is provider of the smallest-cone
// destination and customer of an origin bridges the gap (Alg. 1 lines
// 7–9).
func TestLastHopNoRelationshipBridge(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100)
	e.announce("2.0.0.0/24", 200) // origin AS
	e.announce("4.0.0.0/24", 400) // destination AS
	e.announce("7.0.0.0/24", 700) // hidden bridge
	e.rels.AddP2C(200, 700)       // bridge is customer of the origin
	e.rels.AddP2C(700, 400)       // and provider of the destination
	e.trace("4.0.0.99", "1.0.0.1", "2.0.0.2")
	res := e.run(Options{})
	wantOperator(t, res, "2.0.0.2", 700)
}

// TestLastHopNoRelationshipFallback: with no bridge, the destination AS
// with the smallest cone is selected (Alg. 1 line 10).
func TestLastHopNoRelationshipFallback(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100)
	e.announce("2.0.0.0/24", 200)
	e.announce("4.0.0.0/24", 400)
	e.announce("5.0.0.0/24", 500)
	e.rels.AddP2C(500, 501) // 500 has the bigger cone
	e.trace("4.0.0.99", "1.0.0.1", "2.0.0.2")
	e.trace("5.0.0.99", "1.0.0.1", "2.0.0.2")
	res := e.run(Options{})
	wantOperator(t, res, "2.0.0.2", 400)
}

// §5.1 — empty destination AS set (echo-only last hops).

// TestLastHopEmptyDestSingleOrigin: a single origin trivially wins.
func TestLastHopEmptyDestSingleOrigin(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100)
	e.announce("4.0.0.0/24", 400)
	e.trace("4.0.0.1", "1.0.0.1", "4.0.0.1/e")
	res := e.run(Options{})
	wantOperator(t, res, "4.0.0.1", 400)
}

// TestLastHopEmptyDestRelated: the origin AS related to all others in
// the set wins; ties break toward the smallest cone (the customer).
func TestLastHopEmptyDestRelated(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100)
	e.announce("2.0.0.0/24", 200)
	e.announce("3.0.0.0/24", 300)
	e.rels.AddP2C(200, 300)
	e.rels.AddP2C(200, 201) // gives 200 the larger cone
	e.aliases.Add(addr("2.0.0.1"), addr("3.0.0.1"))
	e.trace("2.0.0.1", "1.0.0.1", "2.0.0.1/e")
	e.trace("3.0.0.1", "1.0.0.1", "3.0.0.1/e")
	res := e.run(Options{})
	// Both origins are mutually related; the smaller cone (300) wins.
	wantOperator(t, res, "2.0.0.1", 300)
}

// TestLastHopEmptyDestOutsideAS: no member relates to all others, but an
// outside AS relates to every member.
func TestLastHopEmptyDestOutsideAS(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100)
	e.announce("2.0.0.0/24", 200)
	e.announce("3.0.0.0/24", 300)
	e.announce("7.0.0.0/24", 700)
	e.rels.AddP2C(200, 700)
	e.rels.AddP2C(300, 700) // 700 multihomed to both origins
	e.aliases.Add(addr("2.0.0.1"), addr("3.0.0.1"))
	e.trace("2.0.0.1", "1.0.0.1", "2.0.0.1/e")
	e.trace("3.0.0.1", "1.0.0.1", "3.0.0.1/e")
	res := e.run(Options{})
	wantOperator(t, res, "2.0.0.1", 700)
}

// TestLastHopEmptyDestVoteFallback: no relationships at all → the AS
// with the most interface mappings, ties toward the smaller cone.
func TestLastHopEmptyDestVoteFallback(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100)
	e.announce("2.0.0.0/24", 200)
	e.announce("3.0.0.0/24", 300)
	e.aliases.Add(addr("2.0.0.1"), addr("2.0.0.2"), addr("3.0.0.1"))
	e.trace("2.0.0.1", "1.0.0.1", "2.0.0.1/e")
	e.trace("2.0.0.2", "1.0.0.1", "2.0.0.2/e")
	e.trace("3.0.0.1", "1.0.0.1", "3.0.0.1/e")
	res := e.run(Options{})
	wantOperator(t, res, "2.0.0.1", 200)
}

// TestLastHopFrozen: phase-2 annotations are never revised by the
// refinement loop (§3.3).
func TestLastHopFrozen(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100)
	e.announce("2.0.0.0/24", 200)
	e.trace("2.0.0.99", "1.0.0.1", "2.0.0.1")
	res := e.run(Options{})
	i := res.Graph.Interface(addr("2.0.0.1"))
	if !i.Router.LastHop {
		t.Fatal("expected last-hop router")
	}
	wantOperator(t, res, "2.0.0.1", 200)
}

// TestLastHopDestAblated: with the destination heuristic disabled, the
// router falls back to origin-set reasoning.
func TestLastHopDestAblated(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100)
	e.announce("2.0.0.0/24", 200)
	e.announce("4.0.0.0/24", 400)
	e.rels.AddP2C(200, 400)
	e.trace("4.0.0.99", "1.0.0.1", "2.0.0.2")
	res := e.run(Options{DisableLastHopDest: true})
	// Without destination evidence only the origin set remains → 200.
	wantOperator(t, res, "2.0.0.2", 200)
}
