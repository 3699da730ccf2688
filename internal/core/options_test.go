package core

import (
	"testing"
)

// Tests pinning the ablation switches and the secondary branches of the
// refinement heuristics.

// TestDestTieBreakAblation: with the extension disabled, a 1–1 vote tie
// on a single-link router falls back to the paper's smallest-cone rule.
func TestDestTieBreakAblation(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100) // ASA (peer, numbers the link)
	e.announce("2.0.0.0/24", 200) // ASB (operates the router)
	e.rels.AddP2P(100, 200)
	// Give 100 the smaller customer cone so the paper's tie-break picks
	// it (wrongly); the destination tie-break picks 200 (whose cone
	// covers the destinations).
	e.rels.AddP2C(200, 201)
	e.rels.AddP2C(200, 202)
	e.trace("201.0.0.9", "9.0.0.1", "1.0.0.9", "2.0.0.1", "201.0.0.9/e")
	e.announce("201.0.0.0/24", 201)
	e.announce("9.0.0.0/24", 900)
	e.rels.AddP2C(200, 900) // keep the head router anchored elsewhere

	with := e.run(Options{})
	wantOperator(t, with, "1.0.0.9", 200)
	without := e.run(Options{DisableDestTieBreak: true})
	if got := without.OperatorOf(addr("1.0.0.9")); got != 100 {
		t.Errorf("ablated tie-break = %v, want the smallest-cone pick 100", got)
	}
}

// TestExceptionHalfVoteGuard: the multiple-peers/providers exception
// only fires when the candidate keeps at least half the top votes
// (§6.1.3).
func TestExceptionHalfVoteGuard(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100)
	e.announce("2.0.0.0/24", 200)
	e.announce("3.0.0.0/24", 300)
	e.rels.AddP2P(100, 200)
	e.rels.AddP2P(100, 300)
	// Origin 100 with two peer subsequents — but five links to 200-land
	// versus one interface vote for 100: 100 has 1 vote vs max 5, less
	// than half, so the exception must NOT fire.
	for i := 1; i <= 5; i++ {
		e.trace("2.0.0.99", "9.0.0.1", "1.0.0.9",
			"2.0.0."+string(rune('0'+i)), "2.0.0.99/e")
	}
	e.trace("3.0.0.99", "9.0.0.1", "1.0.0.9", "3.0.0.1", "3.0.0.99/e")
	e.announce("9.0.0.0/24", 900)
	res := e.run(Options{})
	if got := res.OperatorOf(addr("1.0.0.9")); got == 100 {
		t.Errorf("exception fired despite failing the half-vote guard")
	}
}

// TestEchoOnlyLinkClassSelected: an IR whose only links are Echo class
// still votes with them (no Nexthop links available).
func TestEchoOnlyLinkClassSelected(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100)
	e.announce("2.0.0.0/24", 200)
	e.rels.AddP2C(100, 200)
	// Only echo-reply subsequents (hosts).
	e.trace("2.0.0.1", "1.0.0.9", "2.0.0.1/e")
	e.trace("2.0.0.2", "1.0.0.9", "2.0.0.2/e")
	res := e.run(Options{})
	// The multihomed-customer exception or plain votes must land on
	// the customer 200 via the E links.
	wantOperator(t, res, "1.0.0.9", 200)
}

// TestHiddenASNoUniqueBridge: with two candidate bridge ASes the
// hidden-AS check must leave the selection unchanged (§6.1.5).
func TestHiddenASNoUniqueBridge(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100)
	e.announce("3.0.0.0/24", 300)
	e.rels.AddP2C(100, 200)
	e.rels.AddP2C(100, 201)
	e.rels.AddP2C(200, 300)
	e.rels.AddP2C(201, 300) // two bridges: 200 and 201
	e.trace("3.0.0.97", "1.0.0.1", "1.0.0.9", "3.0.0.1", "3.0.0.97/e")
	e.trace("3.0.0.96", "1.0.0.1", "1.0.0.9", "3.0.0.2", "3.0.0.96/e")
	res := e.run(Options{})
	// Ambiguous bridge → the raw winner (300) stands.
	wantOperator(t, res, "1.0.0.9", 300)
}

// TestReallocAblation: disabling the §6.1.2 correction leaves the
// provider-space votes in place.
func TestReallocAblation(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/16", 100)
	e.announce("3.0.0.0/24", 300)
	e.rels.AddP2C(100, 300)
	e.trace("3.0.0.99", "1.0.0.1", "1.0.0.9", "1.0.5.1", "3.0.0.1", "3.0.0.99/e")
	e.trace("3.0.0.98", "1.0.0.2", "1.0.0.9", "1.0.5.5", "3.0.0.2", "3.0.0.98/e")
	resOn := e.run(Options{})
	resOff := e.run(Options{DisableRealloc: true})
	// Both configurations must annotate the reallocated-space routers
	// as the customer (reachable through other heuristics); the ablation
	// exists to measure aggregate impact, and at minimum must not crash
	// or regress this scenario's reallocated routers.
	wantOperator(t, resOn, "1.0.5.1", 300)
	wantOperator(t, resOff, "1.0.5.1", 300)
}

// TestKeepAnnotationWithoutVotes: a router whose neighbours and
// interfaces are all unannounced keeps its propagated annotation
// instead of resetting (Fig. 8's chains rely on it).
func TestKeepAnnotationWithoutVotes(t *testing.T) {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100)
	e.announce("5.0.0.0/24", 500)
	e.trace("5.0.0.99", "1.0.0.1", "9.9.9.1", "9.9.9.2")
	res := e.run(Options{})
	// 9.9.9.1's only subsequent is 9.9.9.2 (last hop, annotated 500 via
	// destinations); the annotation must propagate and persist.
	wantOperator(t, res, "9.9.9.1", 500)
	if !res.Converged {
		t.Error("did not converge")
	}
}

// TestInterfaceAnnotationIXPSkipped: IXP interfaces never receive
// connected-AS annotations (§6.2).
func TestInterfaceAnnotationIXPSkipped(t *testing.T) {
	e := newEnv(t)
	e.ixpPrefix("11.0.0.0/24")
	e.announce("1.0.0.0/24", 100)
	e.announce("2.0.0.0/24", 200)
	e.trace("2.0.0.99", "1.0.0.1", "11.0.0.5", "2.0.0.1", "2.0.0.99/e")
	res := e.run(Options{})
	i := res.Graph.Interface(addr("11.0.0.5"))
	if i.Annotation != 0 {
		t.Errorf("IXP interface annotated %v", i.Annotation)
	}
}
