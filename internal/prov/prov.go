// Package prov captures decision provenance for an inference run: for
// every router, which heuristic (paper §5.1, Algorithm 1, §6.1) decided
// its operator-AS annotation, the final vote tally and runner-up, the
// tie-break path taken, and the iteration it last changed; for every
// interface, which §6.2 alignment branch set its annotation. Once
// refinement stops, the engine derives one flat Record per router and
// one IfaceRule per interface — fixed-size structs indexed by the
// graph's deterministic orders, byte-identical at every worker count —
// and serializes them into a versioned,
// CRC-guarded artifact (same length-prefix/atomic-write discipline as
// internal/ckpt) that cmd/explain queries and diffs offline.
//
// Layering: prov sits below the inference core (core imports prov, not
// the reverse) and above only asn and ckpt — cmd/explain can load and
// interpret an artifact without linking the engine.
package prov

import (
	"fmt"
	"net/netip"
	"sort"

	"repro/internal/asn"
)

// Rule identifies the heuristic that decided a router's annotation: the
// §5.1 origin-set branches and Algorithm 1 branches for last-hop
// routers (phase 2, frozen thereafter), and the Algorithm 2 / §6.1
// outcomes for refined routers (re-decided every iteration; the record
// keeps the final iteration's outcome).
type Rule uint8

const (
	// RuleNone marks a router no heuristic has decided (an interrupted
	// run's untouched router, or a corrupt record).
	RuleNone Rule = iota

	// §5.1 last-hop branches (no destination evidence).
	RuleLHNoOrigin     // empty origin set: unannotated
	RuleLHSingleOrigin // single origin AS
	RuleLHRelated      // origin AS related to all others in the set
	RuleLHOutside      // AS outside the set related to every member
	RuleLHVote         // majority vote among interface origins

	// Algorithm 1 last-hop branches (destination evidence available).
	RuleLHOverlap  // line 3: origin ∩ destination overlap
	RuleLHDestRel  // lines 4–6: destination AS related to an origin
	RuleLHBridge   // lines 7–9: bridge AS between origins and destination
	RuleLHSmallest // line 10: smallest-cone destination AS

	// §6.1 refinement outcomes (Algorithm 2).
	RuleException          // §6.1.3 voting exception decided the router
	RuleKeepPrevious       // no votes: previous annotation kept (§6.1.1 chains)
	RuleRestrictedElection // lines 11–12: relationship-restricted election
	RuleElection           // lines 13–14: unrestricted election
	RuleHiddenAS           // §6.1.5 hidden bridge AS replaced the election

	// NumRules bounds the enum for validation and histogram sizing.
	NumRules
)

var ruleNames = [NumRules]string{
	RuleNone:               "none",
	RuleLHNoOrigin:         "lasthop-no-origin",
	RuleLHSingleOrigin:     "lasthop-single-origin",
	RuleLHRelated:          "lasthop-related-in-set",
	RuleLHOutside:          "lasthop-related-outside",
	RuleLHVote:             "lasthop-majority-vote",
	RuleLHOverlap:          "lasthop-origin-dest-overlap",
	RuleLHDestRel:          "lasthop-dest-with-rel",
	RuleLHBridge:           "lasthop-bridge-as",
	RuleLHSmallest:         "lasthop-smallest-cone",
	RuleException:          "voting-exception",
	RuleKeepPrevious:       "keep-previous",
	RuleRestrictedElection: "restricted-election",
	RuleElection:           "election",
	RuleHiddenAS:           "hidden-as",
}

var ruleDocs = [NumRules]string{
	RuleNone:               "no heuristic has decided this router",
	RuleLHNoOrigin:         "last hop with an empty origin-AS set: left unannotated (paper §5.1)",
	RuleLHSingleOrigin:     "last hop with a single origin AS (§5.1)",
	RuleLHRelated:          "last hop: origin AS related to every other origin in the set, smallest cone on ties (§5.1)",
	RuleLHOutside:          "last hop: AS outside the origin set related to every member (§5.1)",
	RuleLHVote:             "last hop: majority vote among interface origin ASes (§5.1)",
	RuleLHOverlap:          "last hop: AS in both the origin and destination sets (Algorithm 1, line 3)",
	RuleLHDestRel:          "last hop: destination AS with a relationship to an origin, best destination coverage (Algorithm 1, lines 4-6)",
	RuleLHBridge:           "last hop: unique bridge AS between the origins and the smallest-cone destination (Algorithm 1, lines 7-9)",
	RuleLHSmallest:         "last hop: smallest-cone destination AS, no origin relationship found (Algorithm 1, line 10)",
	RuleException:          "a §6.1.3 voting exception (multihomed customer, or common peer/provider) decided the router outright",
	RuleKeepPrevious:       "no link or interface cast a vote: the previous annotation was kept so propagated annotations survive (§6.1.1)",
	RuleRestrictedElection: "election restricted to origin ASes plus vote ASes related to a link origin (Algorithm 2, lines 11-12)",
	RuleElection:           "unrestricted election over all link and interface votes (Algorithm 2, lines 13-14)",
	RuleHiddenAS:           "the §6.1.5 hidden-AS check replaced the election winner with the bridge AS between it and the link origins",
}

// String returns the rule's stable kebab-case identifier — the id the
// obs counters, explain output, and drift grouping all key on.
func (r Rule) String() string {
	if r >= NumRules {
		return fmt.Sprintf("rule-%d", uint8(r))
	}
	return ruleNames[r]
}

// Describe returns a one-line explanation of the rule, with the paper
// section it implements.
func (r Rule) Describe() string {
	if r >= NumRules {
		return "unknown rule"
	}
	return ruleDocs[r]
}

// LastHop reports whether the rule is a phase-2 last-hop heuristic
// (frozen at annotation time) rather than a per-iteration refinement
// outcome.
func (r Rule) LastHop() bool {
	return r >= RuleLHNoOrigin && r <= RuleLHSmallest
}

// Tie is a bitmask of the §6.1.4 tie-break stages an election walked
// through. Zero means the election was not tied (or no election ran).
type Tie uint8

const (
	// TieSingle: a single candidate reached the tie-break (no real tie).
	TieSingle Tie = 1 << iota
	// TieDestFull: candidates whose customer cone covers every
	// destination AS won the tie (destination-coverage extension).
	TieDestFull
	// TieDestBest: a unique best-coverage candidate won on a small
	// destination set (destination-coverage extension).
	TieDestBest
	// TieSmallestCone: the paper's smallest-customer-cone rule resolved
	// the remaining candidates (§6.1.4).
	TieSmallestCone
)

// String renders the mask as a "+"-joined path in stage order, "none"
// when empty.
func (t Tie) String() string {
	if t == 0 {
		return "none"
	}
	var parts []string
	if t&TieSingle != 0 {
		parts = append(parts, "single-candidate")
	}
	if t&TieDestFull != 0 {
		parts = append(parts, "dest-full-cover")
	}
	if t&TieDestBest != 0 {
		parts = append(parts, "dest-best-cover")
	}
	if t&TieSmallestCone != 0 {
		parts = append(parts, "smallest-cone")
	}
	out := parts[0]
	for _, p := range parts[1:] {
		out += "+" + p
	}
	return out
}

// Record is one router's decision provenance: the final iteration's
// winning heuristic and election shape, plus the last iteration the
// annotation changed. The struct is flat and fixed-size so the engine
// can keep a preallocated slice of them and overwrite in place.
type Record struct {
	// Rule is the heuristic that produced the final annotation.
	Rule Rule
	// Tie records which tie-break stages the deciding election walked.
	Tie Tie
	// Winner is the AS the rule selected (the router's annotation).
	Winner asn.ASN
	// WinnerVotes is the winner's final vote count (0 when the rule did
	// not tally votes, e.g. last-hop set reasoning).
	WinnerVotes int32
	// RunnerUp is the highest-voted AS other than the winner (smallest
	// ASN on count ties); asn.None when no other AS received votes. For
	// RuleHiddenAS it is the displaced election winner.
	RunnerUp asn.ASN
	// RunnerUpVotes is the runner-up's final vote count.
	RunnerUpVotes int32
	// Iter is the last refinement iteration the router's annotation
	// changed; 0 for routers decided in phase 2 or never changed. A
	// value > 1 means the router flipped after its first election.
	Iter int32
}

// IfaceRule identifies the §6.2 branch that set an interface's final
// annotation.
type IfaceRule uint8

const (
	// IfaceNone marks an interface §6.2 never visited (interrupted run).
	IfaceNone IfaceRule = iota
	// IfaceStatic: IXP or unannounced address — never re-annotated.
	IfaceStatic
	// IfaceOffPath: origin differs from the router's annotation, so the
	// origin identifies the far router and wins directly.
	IfaceOffPath
	// IfaceVote: the connected routers' weighted vote had a unique top.
	IfaceVote
	// IfaceVoteRelated: the vote tied; the largest-cone AS related to
	// the origin won.
	IfaceVoteRelated
	// IfaceOriginFallback: no votes (or no related candidate); the
	// origin AS was kept.
	IfaceOriginFallback

	// NumIfaceRules bounds the enum for validation.
	NumIfaceRules
)

var ifaceRuleNames = [NumIfaceRules]string{
	IfaceNone:           "none",
	IfaceStatic:         "static",
	IfaceOffPath:        "off-path-origin",
	IfaceVote:           "router-vote",
	IfaceVoteRelated:    "router-vote-related",
	IfaceOriginFallback: "origin-fallback",
}

var ifaceRuleDocs = [NumIfaceRules]string{
	IfaceNone:           "never annotated by §6.2",
	IfaceStatic:         "IXP or unannounced address: the §6.2 pass never revises it",
	IfaceOffPath:        "origin AS differs from the router's annotation, so the origin identifies the connected router (§6.2)",
	IfaceVote:           "connected routers' vote (weighted by preceding interfaces) had a unique winner (§6.2)",
	IfaceVoteRelated:    "connected routers' vote tied; largest-cone candidate related to the origin won (§6.2)",
	IfaceOriginFallback: "no connected-router votes (or no related candidate): origin AS kept (§6.2)",
}

// String returns the branch's stable kebab-case identifier.
func (r IfaceRule) String() string {
	if r >= NumIfaceRules {
		return fmt.Sprintf("iface-rule-%d", uint8(r))
	}
	return ifaceRuleNames[r]
}

// Describe returns a one-line explanation of the branch.
func (r IfaceRule) Describe() string {
	if r >= NumIfaceRules {
		return "unknown interface rule"
	}
	return ifaceRuleDocs[r]
}

// RouterRec is one router's entry in an artifact: its final annotation
// and provenance record, plus whether it was a frozen last-hop router.
type RouterRec struct {
	Annotation asn.ASN
	LastHop    bool
	Record
}

// Iface is one interface's entry in an artifact. Router indexes
// Artifact.Routers.
type Iface struct {
	Addr       netip.Addr
	Origin     asn.ASN
	Annotation asn.ASN
	Router     int32
	Rule       IfaceRule
}

// Artifact is a run's complete decision provenance: per-router records
// indexed by router ID and per-interface entries in the graph's sorted
// address order — the same deterministic index spaces the checkpoint
// format uses, so the artifact is byte-identical across worker counts
// and resume points.
type Artifact struct {
	Iterations  int
	Converged   bool
	Interrupted bool
	CycleLength int
	Routers     []RouterRec
	Ifaces      []Iface
}

// Lookup finds the artifact entry for addr (nil artifact or unknown
// address: ok=false). Ifaces is sorted by address, so this is a binary
// search.
func (a *Artifact) Lookup(addr netip.Addr) (*Iface, bool) {
	if a == nil {
		return nil, false
	}
	i := sort.Search(len(a.Ifaces), func(i int) bool {
		return !a.Ifaces[i].Addr.Less(addr)
	})
	if i < len(a.Ifaces) && a.Ifaces[i].Addr == addr {
		return &a.Ifaces[i], true
	}
	return nil, false
}

// RouterIfaces returns the interfaces belonging to router (by index),
// in sorted-address order. Nil artifact or out-of-range index: nil.
func (a *Artifact) RouterIfaces(router int32) []*Iface {
	if a == nil || router < 0 || int(router) >= len(a.Routers) {
		return nil
	}
	var out []*Iface
	for i := range a.Ifaces {
		if a.Ifaces[i].Router == router {
			out = append(out, &a.Ifaces[i])
		}
	}
	return out
}

// RuleCounts histograms the router records by winning rule. Nil
// artifact: zero counts.
func (a *Artifact) RuleCounts() [NumRules]int {
	if a == nil {
		return [NumRules]int{}
	}
	var counts [NumRules]int
	for i := range a.Routers {
		r := a.Routers[i].Rule
		if r >= NumRules {
			r = RuleNone
		}
		counts[r]++
	}
	return counts
}
