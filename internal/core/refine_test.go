package core

import (
	"testing"
)

// Refinement scenarios (paper §6, Algorithms 2–3).

// TestVoteMajority: the AS with the most link votes operates the IR
// (§6.1.4) — the basic MAP-IT-style inference.
func TestVoteMajority(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100)
	e.announce("2.0.0.0/24", 200)
	e.rels.AddP2C(100, 200)
	// IR at 1.0.0.9 (origin 100) with two subsequent interfaces in 200:
	// it is 200's border using provider address space.
	e.trace("2.0.0.91", "1.0.0.1", "1.0.0.9", "2.0.0.1", "2.0.0.91/e")
	e.trace("2.0.0.92", "1.0.0.1", "1.0.0.9", "2.0.0.2", "2.0.0.92/e")
	res := e.run(Options{})
	wantOperator(t, res, "1.0.0.9", 200)
}

// TestUnannouncedChainFig8: IRs whose addresses match nothing propagate
// annotations hop by hop across iterations (Fig. 8).
func TestUnannouncedChainFig8(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100)
	e.announce("5.0.0.0/24", 500) // ASX's announced space
	// u1, u2, u3 (9.9.9.x) match nothing. The final hop is annotated by
	// the last-hop heuristic; the chain picks it up backwards.
	e.trace("5.0.0.99", "1.0.0.1", "9.9.9.1", "9.9.9.2", "9.9.9.3")
	res := e.run(Options{})
	wantOperator(t, res, "9.9.9.3", 500) // last hop: dest AS
	wantOperator(t, res, "9.9.9.2", 500) // propagated (iteration 1)
	wantOperator(t, res, "9.9.9.1", 500) // propagated (iteration 2)
	if res.Iterations < 2 {
		t.Errorf("chain needs ≥2 iterations, ran %d", res.Iterations)
	}
}

// TestThirdPartyFig9: a subsequent interface whose origin differs from
// both the link origin set and its router's annotation, with an AS
// relationship bypassing it and no matching destinations, is treated as
// a third-party address — the vote goes to its router's annotation.
func TestThirdPartyFig9(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100) // ASA
	e.announce("2.0.0.0/24", 200) // ASB
	e.announce("3.0.0.0/24", 300) // ASC (third party)
	e.rels.AddP2C(100, 200)       // A can reach B without C
	// Router RB (owned by B) replies with a third-party C address (c)
	// on the A→B crossing; RB's identity comes from its other observed
	// interface b1 (origin B) via aliases.
	e.aliases.Add(addr("3.0.0.7"), addr("2.0.0.7"))
	// Path via the third-party reply; destinations are in B, never C.
	e.trace("2.0.0.99", "1.0.0.1", "3.0.0.7", "2.0.0.50")
	// RB also observed directly with its B address.
	e.trace("2.0.0.98", "1.0.0.2", "2.0.0.7", "2.0.0.51")
	// Anchor 1.0.0.1's router inside A: an internal A link keeps the
	// single-subsequent exception from claiming it.
	e.announce("5.0.0.0/24", 500)
	e.rels.AddP2C(100, 500)
	e.trace("5.0.0.99", "1.0.0.1", "1.0.0.3", "5.0.0.1")
	res := e.run(Options{})
	wantOperator(t, res, "3.0.0.7", 200) // RB is B's router
	wantOperator(t, res, "1.0.0.1", 100)

	// Ablation: disabling the test must not crash and may change votes.
	res2 := e.run(Options{DisableThirdParty: true})
	_ = res2
}

// TestMultihomedCustomerFig11: an IR whose interfaces are all in the
// provider's space with a single subsequent customer AS is the
// customer's router (§6.1.3).
func TestMultihomedCustomerFig11(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100) // ASP
	e.announce("3.0.0.0/24", 300) // ASC
	e.rels.AddP2C(100, 300)
	// IR with two provider-space interfaces (multihomed links p1, p2)
	// and one link into the customer.
	e.aliases.Add(addr("1.0.0.21"), addr("1.0.0.22"))
	e.trace("3.0.0.99", "1.0.0.1", "1.0.0.21", "3.0.0.1", "3.0.0.99/e")
	e.trace("3.0.0.98", "1.0.0.2", "1.0.0.22", "3.0.0.1", "3.0.0.98/e")
	res := e.run(Options{})
	// Pure voting would give ASP (two interface votes vs one link vote);
	// the exception selects the customer.
	wantOperator(t, res, "1.0.0.21", 300)
}

// TestMultiplePeersException: an IR with one origin AS and multiple
// subsequent ASes that are all peers/providers of it is operated by the
// origin (§6.1.3, second exception).
func TestMultiplePeersException(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100)
	e.announce("2.0.0.0/24", 200)
	e.announce("3.0.0.0/24", 300)
	e.announce("4.0.0.0/24", 400)
	e.rels.AddP2P(100, 200)
	e.rels.AddP2P(100, 300)
	e.rels.AddP2C(400, 100) // 400 is 100's provider
	// 100's border router peers with 200 and 300 (their ingresses are
	// in THEIR space) and reaches its provider 400.
	e.trace("2.0.0.99", "5.0.0.1", "1.0.0.9", "2.0.0.1", "2.0.0.99/e")
	e.trace("3.0.0.99", "5.0.0.1", "1.0.0.9", "3.0.0.1", "3.0.0.99/e")
	e.trace("4.0.0.99", "5.0.0.1", "1.0.0.9", "4.0.0.1", "4.0.0.99/e")
	e.announce("5.0.0.0/24", 500)
	res := e.run(Options{})
	// Votes alone: 200/300/400 each 1, 100 gets 1 interface vote — the
	// exception resolves to the common denominator 100.
	wantOperator(t, res, "1.0.0.9", 100)
}

// TestHiddenASFig12: the selected AS has no relationship with any IR
// origin; a unique AS bridging the link origins and the selection takes
// its place (§6.1.5).
func TestHiddenASFig12(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100) // ASA
	e.announce("3.0.0.0/24", 300) // ASC
	e.announce("2.0.0.0/24", 200) // ASB (hidden)
	e.rels.AddP2C(100, 200)       // A → B
	e.rels.AddP2C(200, 300)       // B → C
	// B's router: ingress in A's space (1.0.0.9), customer links to C
	// numbered from C's space. No B address ever appears on it.
	e.trace("3.0.0.97", "1.0.0.1", "1.0.0.9", "3.0.0.1", "3.0.0.97/e")
	e.trace("3.0.0.96", "1.0.0.1", "1.0.0.9", "3.0.0.2", "3.0.0.96/e")
	res := e.run(Options{})
	wantOperator(t, res, "1.0.0.9", 200)
	// Ablated: the raw winner (ASC) is selected instead.
	res2 := e.run(Options{DisableHiddenAS: true})
	wantOperator(t, res2, "1.0.0.9", 300)
}

// TestIXPVote: a link to an IXP public-peering address votes for the
// link origin AS with the largest customer cone (Alg. 3 line 2).
func TestIXPVote(t *testing.T) {
	e := newEnv(t)
	e.ixpPrefix("11.0.0.0/24")
	e.announce("1.0.0.0/24", 100)
	e.announce("2.0.0.0/24", 200)
	e.rels.AddP2C(100, 101)
	e.rels.AddP2C(100, 102) // 100 has the largest cone
	// 100's IXP-facing router: its own space then peers' LAN ports.
	e.trace("2.0.0.99", "1.0.0.1", "1.0.0.9", "11.0.0.2", "2.0.0.50")
	res := e.run(Options{})
	wantOperator(t, res, "1.0.0.9", 100)
	// The IXP address's own router is annotated from what follows it.
	wantOperator(t, res, "11.0.0.2", 200)
}

// TestReallocatedVotesFig10: subsequent interfaces in the IR's own
// origin space that all share one /24, whose routers are annotated with
// a single customer AS, flip their votes to the customer (§6.1.2).
func TestReallocatedVotesFig10(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/16", 100) // ASP aggregate; x.x.x/24 inside it
	e.announce("3.0.0.0/24", 300) // ASC's own announced space
	e.rels.AddP2C(100, 300)
	// ASC's two border routers use reallocated P space (1.0.5.0/24) and
	// are identified as C by what follows them (C space).
	e.trace("3.0.0.99", "1.0.0.1", "1.0.0.9", "1.0.5.1", "3.0.0.1", "3.0.0.99/e")
	e.trace("3.0.0.98", "1.0.0.2", "1.0.0.9", "1.0.5.5", "3.0.0.2", "3.0.0.98/e")
	res := e.run(Options{})
	// The provider router 1.0.0.9: without the correction its votes are
	// all P (both subsequent interfaces have origin P); with it they
	// flip to C... and the multihomed-customer exception would then
	// claim it. The correct answer for 1.0.5.x's routers is C.
	wantOperator(t, res, "1.0.5.1", 300)
	wantOperator(t, res, "1.0.5.5", 300)
}

// TestInterfaceAnnotationFig13a: an interface whose origin differs from
// its router's annotation is annotated with its origin (it names the
// far side).
func TestInterfaceAnnotationFig13a(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100)
	e.announce("2.0.0.0/24", 200)
	e.rels.AddP2C(100, 200)
	e.trace("2.0.0.99", "1.0.0.1", "1.0.0.9", "2.0.0.1", "2.0.0.99/e")
	res := e.run(Options{})
	i := res.Graph.Interface(addr("1.0.0.9"))
	if i.Router.Annotation != 200 {
		t.Fatalf("router = %v, want 200", i.Router.Annotation)
	}
	if i.Annotation != 100 {
		t.Errorf("interface annotation = %v, want origin 100", i.Annotation)
	}
}

// TestRefinementCorrectionFig14: an IR with a single link is first
// misled by its neighbour's origin, then corrected when the interface
// annotation is revised by the other connected routers (Fig. 14).
func TestRefinementCorrectionFig14(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100) // ASA
	e.announce("2.0.0.0/24", 200) // ASB
	e.rels.AddP2C(100, 200)
	// Interface b (2.0.0.5, origin B) sits on B's router; IR1 (A's
	// router, 1.0.0.9 via its A address) links to it, as do two other
	// A routers with multiple prior interfaces.
	e.aliases.Add(addr("1.0.0.11"), addr("1.0.0.12")) // IR3 with 2 ifaces
	e.trace("2.0.0.99", "1.0.0.9", "2.0.0.5", "2.0.0.50")
	e.trace("2.0.0.98", "1.0.0.11", "2.0.0.5", "2.0.0.51")
	e.trace("2.0.0.97", "1.0.0.12", "2.0.0.5", "2.0.0.52")
	// IR3 also reaches a second customer, so the single-subsequent
	// exception cannot claim it and its A identity prevails — the
	// anchor Fig. 14's correction needs.
	e.announce("3.0.0.0/24", 300)
	e.rels.AddP2C(100, 300)
	e.trace("3.0.0.99", "1.0.0.11", "3.0.0.1", "3.0.0.99/e")
	res := e.run(Options{})
	// b's connected routers are A-operated; b's interface annotation
	// becomes A, and every near router resolves to A... while b's own
	// router is B's.
	wantOperator(t, res, "1.0.0.9", 100)
	wantOperator(t, res, "2.0.0.5", 200)
}

// TestRepeatedStateTermination: the loop stops before the iteration cap
// on ordinary inputs and reports convergence.
func TestRepeatedStateTermination(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100)
	e.announce("2.0.0.0/24", 200)
	e.trace("2.0.0.99", "1.0.0.1", "2.0.0.1", "2.0.0.9")
	res := e.run(Options{})
	if !res.Converged {
		t.Error("simple graph did not converge")
	}
	if res.Iterations >= 50 {
		t.Errorf("hit the iteration cap: %d", res.Iterations)
	}
}

func TestIterationCapRespected(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100)
	e.announce("2.0.0.0/24", 200)
	e.trace("2.0.0.99", "1.0.0.1", "2.0.0.1", "2.0.0.9")
	res := e.run(Options{MaxIterations: 1})
	if res.Iterations != 1 {
		t.Errorf("iterations = %d, want 1", res.Iterations)
	}
}

// TestInterdomainLinksOutput checks the Result link enumeration.
func TestInterdomainLinksOutput(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100)
	e.announce("2.0.0.0/24", 200)
	e.announce("3.0.0.0/24", 300)
	e.rels.AddP2C(100, 200)
	e.rels.AddP2C(100, 300)
	// The A egress serves two customers, so its A identity is clear.
	e.trace("2.0.0.99", "1.0.0.1", "2.0.0.1", "2.0.0.9")
	e.trace("3.0.0.99", "1.0.0.1", "3.0.0.1", "3.0.0.9")
	res := e.run(Options{})
	links := res.InterdomainLinks()
	found := false
	for _, l := range links {
		if l.NearAS == 100 && l.FarAS == 200 {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a 100→200 interdomain link, got %v", links)
	}
	pairs := res.ASLinks()
	if len(pairs) == 0 || pairs[0][0] != 100 || pairs[0][1] != 200 {
		t.Errorf("AS links = %v", pairs)
	}
}
