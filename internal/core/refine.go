package core

import (
	"context"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/asn"
	"repro/internal/ckpt"
	"repro/internal/ip2as"
	"repro/internal/netutil"
	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/shard"
)

// Options controls the inference run. The Disable* switches exist for
// the ablation benchmarks; all heuristics are enabled by default.
type Options struct {
	// MaxIterations caps the refinement loop (default 50); the loop
	// normally exits earlier on a repeated state (§6.3).
	MaxIterations int
	// Workers is the number of concurrent annotation workers (default
	// runtime.GOMAXPROCS). Annotation within one iteration depends only
	// on the previous iteration's committed state, so routers and
	// interfaces are partitioned into deterministic contiguous shards
	// and annotated concurrently; the Result is byte-identical for
	// every worker count. 1 runs everything on the calling goroutine.
	// When Workers > 1 the RelationshipOracle must be safe for
	// concurrent readers (asrel.Graph is).
	Workers int
	// DisableLastHopDest ablates the §5.2 destination-AS last-hop
	// heuristic (last hops then fall back to origin-set reasoning).
	DisableLastHopDest bool
	// DisableThirdParty ablates the §6.1.1 third-party address test.
	DisableThirdParty bool
	// DisableRealloc ablates the §6.1.2 reallocated-prefix correction.
	DisableRealloc bool
	// DisableExceptions ablates the §6.1.3 voting exceptions.
	DisableExceptions bool
	// DisableHiddenAS ablates the §6.1.5 hidden-AS check.
	DisableHiddenAS bool
	// Recorder receives the run's telemetry: phase timings, graph and
	// convergence metrics, per-heuristic decision counters, and
	// per-worker shard timings. nil (the default) disables collection;
	// the engine's annotations are identical either way.
	Recorder *obs.Recorder
	// Checkpoint, when non-nil, makes the refinement loop durable: its
	// iteration-0 and final states are published in Checkpoint.Dir, and
	// ResumeContext carries on a state ckpt.Load read from there. Durability failures
	// are real errors: RunContext and InferContext return them.
	Checkpoint *ckpt.Config
	// hookIterEnd, when non-nil, runs after each fully committed
	// refinement iteration (snapshot, router, and interface passes all
	// complete). It is a test-only seam — in-package tests use it to
	// cancel a context at exactly iteration k and prove interruption
	// determinism; nothing outside the package can set it.
	hookIterEnd func(iter int)
	// Provenance fills Result.Provenance: per router the winning
	// heuristic, final vote tally and runner-up, tie-break path and
	// iteration of last change, per interface the §6.2 branch. The
	// artifact is derived once the loop has stopped, from the committed
	// state and the run's change sets, which every run keeps in memory;
	// the loop itself, its annotations and its checkpoints are the
	// same with the switch on or off. So any run may have one — a resume
	// of any checkpoint, a delta run — and it is byte-identical to a
	// fresh run's at every worker count.
	Provenance bool
	// DisableDestTieBreak ablates an extension to the §6.1.4 tie-break:
	// before falling back to the smallest customer cone, a vote tie is
	// broken toward the AS whose customer cone covers the most of the
	// IR's destination ASes — the same signal Algorithm 1 (line 6) uses
	// for last hops. It resolves single-link peer routers that a lone
	// vantage point cannot disambiguate (cf. Fig. 14, which needs
	// multiple in-links to self-correct).
	DisableDestTieBreak bool
}

func (o *Options) setDefaults() {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 50
	}
	o.Workers = shard.Resolve(o.Workers)
}

// voteScratch is one worker shard's reusable annotation storage: the
// vote's working state as slices whose backing arrays outlive the router
// or interface they were filled for, so a warmed shard allocates nothing.
// Shard boundaries are pure functions of (n, workers) — shard.Bounds — so
// shard s sees the same entities every iteration, and scratch never
// crosses shards: no synchronization is needed.
type voteScratch struct {
	votes asn.Tally // the router's (Alg. 2) or interface's (§6.2) vote tally

	// Parallel to the router's voteLinks; asn.None where a link cast no
	// vote. cast is what Alg. 3 said, linkVote what the link votes for
	// once §6.1.2 has moved it. A link's origins back both: moving a vote
	// does not take the origins away from the AS it was first cast for.
	cast, linkVote []asn.ASN

	subs       asn.SmallSet // §6.1.3: the distinct link votes
	restricted asn.SmallSet // §6.1.4: the ASes the restricted election admits
	backing    []asn.ASN    // §6.1.5: link origins backing the elected AS
	cands      []int        // §6.1.2: indices of the candidate links
	top, tied  []asn.ASN    // tied-max storage: Tally.Max, electFrom
	full, best []asn.ASN    // breakTie's destination-coverage candidates
	related    []asn.ASN    // annotateInterface's related candidates
}

// cycleDetector maps each annotation-state hash to the iteration it first
// appeared in, and detects the §6.3 stopping condition: a state seen
// before. The cycle length is the distance back to the earlier sighting —
// 1 for a fixed point, >1 when the loop oscillates between states.
type cycleDetector map[uint64]int

func newCycleDetector() cycleDetector { return make(cycleDetector) }

// record notes the state hash of iteration iter. When the state repeats
// an earlier one it returns (cycle length, true); otherwise (0, false).
func (c cycleDetector) record(h uint64, iter int) (int, bool) {
	if first, ok := c[h]; ok {
		return iter - first, true
	}
	c[h] = iter
	return 0, false
}

// The counts of one refinement iteration, in trace-row order: the
// change set's two sizes, then the votes cast and the per-heuristic
// decision counts (§6.1.1–§6.1.3 and extensions): how often each
// Algorithm 3 branch, vote correction, or election special case decided
// a vote or a router this iteration.
const (
	routersChanged  = iota // routers whose annotation changed
	ifacesChanged          // interfaces whose annotation changed
	votesCast              // link and interface votes cast in router elections
	heurOriginMatch        // Alg. 3 line 1: subsequent origin among link origins
	heurIXP                // Alg. 3 line 2: IXP address → largest-cone origin
	heurUnannounced        // Alg. 3 lines 4–5: unannounced-chain propagation
	heurThirdParty         // Alg. 3 lines 6–8: third-party address detected
	heurRealloc            // §6.1.2: votes moved to a reallocation customer
	heurException          // §6.1.3: a voting exception decided the router
	heurHiddenAS           // §6.1.5: hidden bridge AS replaced the election
	heurDestTie            // destination-coverage tie-break decided a tie
	nTallies
)

// tallyRow names each count in the convergence trace. Its cumulative
// counter is "refine." + the name, with "heur_" read as "heur.".
var tallyRow = [nTallies]string{
	"routers_changed", "interfaces_changed", "votes_cast",
	"heur_origin_match", "heur_ixp", "heur_unannounced", "heur_third_party",
	"heur_reallocated", "heur_exception", "heur_hidden_as", "heur_dest_tiebreak",
}

// iterTally accumulates one refinement iteration's counts. Each worker
// shard fills a private tally with plain (unsynchronized) increments and
// merges it into the iteration total once at shard end, so the hot loop
// pays a handful of integer bumps per router. The change set's sizes are
// not tallied: row takes them from the change set itself.
type iterTally [nTallies]int64

//lint:hotpath
func (t *iterTally) add(o *iterTally) {
	for k := range t {
		t[k] += o[k]
	}
}

// row renders the tally and the iteration's change set d as one
// convergence-trace sample.
func (t *iterTally) row(iter int, d ckpt.IterDelta) obs.Row {
	c := *t
	c[routersChanged], c[ifacesChanged] = int64(len(d.Routers)), int64(len(d.Ifaces))
	row := obs.Row{"iteration": int64(iter)}
	for k, name := range tallyRow {
		row[name] = c[k]
	}
	return row
}

// refineCounters are the cumulative counter handles the refinement loop
// flushes each iteration, fetched once so the loop never touches the
// recorder's registry.
type refineCounters struct {
	tallies                     [nTallies]*obs.Counter
	routerShardNS, ifaceShardNS *obs.Histogram
}

func newRefineCounters(rec *obs.Recorder) refineCounters {
	c := refineCounters{
		routerShardNS: rec.Histogram("refine.router_shard_ns"),
		ifaceShardNS:  rec.Histogram("refine.iface_shard_ns"),
	}
	for k, name := range tallyRow {
		c.tallies[k] = rec.Counter("refine." + strings.Replace(name, "heur_", "heur.", 1))
	}
	return c
}

// flush adds one iteration's trace row to the cumulative counters.
func (c *refineCounters) flush(row obs.Row) {
	for k, name := range tallyRow {
		c.tallies[k].Add(row[name])
	}
}

// RunContext executes phases 2 and 3 over a constructed graph: last-hop
// annotation (§5) followed by the graph-refinement loop (§6), stopping
// at a repeated annotation state or the iteration cap.
//
// Each iteration runs in three barriered steps, each sharded across
// opts.Workers goroutines:
//
//  1. snapshot — every router's annotation is committed to its
//     previous-iteration slot;
//  2. routers — every non-last-hop router is re-annotated (Alg. 2),
//     reading neighbour router annotations only from the snapshot and
//     interface annotations only from the previous iteration's commit;
//  3. interfaces — every interface is re-annotated (§6.2), reading the
//     router annotations step 2 just committed (interfaces never read
//     other interfaces).
//
// Both annotation functions are pure in those reads, so after the first
// pass an entity none of whose reads changed since its last evaluation
// is not evaluated again — it would commit the value it already holds
// (inputsChanged, votersChanged). An iteration therefore costs what the
// previous one changed, not the size of the graph: the long tail of
// iterations that move one or two routers before the state repeats is
// nearly free, and a run's time no longer swings with how many of them
// a dataset happens to need.
//
// A delta run (RunDeltaContext) is this loop with a replay source: an
// entity the appended batch cannot have reached yet is not evaluated at
// all — it takes the value the base run recorded for it at the same
// iteration, or is left alone — and the skip rule above applies to the
// rest, from the first pass after they were reached. A resume
// (ResumeContext) is a delta run with nothing appended.
//
// Because every read is against a barrier-separated earlier step and
// every write is owned by exactly one shard, the outcome is independent
// of worker count and shard boundaries: a run at one worker and at N
// produce byte-identical results.
//
// Cancellation is cooperative and durability optional. The context is
// checked only at batch boundaries — before each sharded pass — so the
// annotation state a cancelled run leaves behind is always the state of
// a fully committed iteration, byte-identical at every worker count to a fresh run capped at that
// iteration (MaxIterations=k). On cancellation the partial result
// carries Interrupted=true, Iterations set to the last committed
// iteration, and a fully populated Report; cancellation is not an error
// because the partial annotations are the deliverable.
//
// A non-nil error occurs only with Options.Checkpoint set: a snapshot
// that could not be written. A run that carries on a checkpoint is
// ckpt.Load plus ResumeContext.
func RunContext(ctx context.Context, g *Graph, rels RelationshipOracle, opts Options) (*Result, error) {
	return refine(ctx, g, rels, opts, nil)
}

// refine is the one refinement loop, behind RunContext (src nil),
// ResumeContext and RunDeltaContext. In a pass, one of three things
// happens to an entity: it is evaluated — it is dirty, and this is the
// first pass since it became so or a stamp says one of its reads moved; a
// clean entity takes the flip src replays for it; or it is left alone, a
// dirty router adding its memoised tallies. Whatever commits a change,
// the statements that record it are the same. A nil src makes everything
// dirty and replays nothing, inside its own methods: nothing here asks
// which entry point called.
func refine(ctx context.Context, g *Graph, rels RelationshipOracle, opts Options, src *replay) (*Result, error) {
	opts.setDefaults()
	rec := opts.Recorder

	if ctx.Err() != nil {
		// Cancelled before annotation began: the iteration-0 state (no
		// annotations) is the last committed state.
		res := &Result{Graph: g, Interrupted: true}
		rec.MarkInterrupted()
		res.Report = rec.Report()
		res.Report.Interrupted = true
		return res, nil
	}

	lh := rec.Phase("lasthop")
	annotateLastHops(g, rels, opts)
	lh.Note("lasthop_irs", int64(g.Stats.LastHopIRs))
	lh.End()
	res := &Result{Graph: g}
	resumed, err := src.seed(g, rec, res)
	if err != nil {
		return nil, err
	}

	ph := rec.Phase("refine")
	rec.Gauge("refine.workers").Set(int64(opts.Workers))
	counters := newRefineCounters(rec)
	trace := rec.Series("refine.iterations")
	var routerTiming, ifaceTiming func(shard int, d time.Duration)
	if rec.Enabled() {
		routerTiming = func(_ int, d time.Duration) { counters.routerShardNS.Observe(d.Nanoseconds()) }
		ifaceTiming = func(_ int, d time.Duration) { counters.ifaceShardNS.Observe(d.Nanoseconds()) }
	}

	cycles := newCycleDetector()
	var ckr *ckptRunner
	if opts.Checkpoint != nil {
		ckr, err = newCkptRunner(opts.Checkpoint, &opts, g, resumed, src.appended())
		if err != nil {
			ph.End()
			return nil, err
		}
	}
	// Checkpointed runs always collect per-iteration tallies, Recorder
	// or not: the convergence trace travels inside the checkpoint so a
	// resumed run's report is the original's.
	collect := rec.Enabled() || ckr != nil
	// Per-shard reusable scratch and change sets. Shard boundaries come
	// from shard.Bounds — a pure function of the element and worker
	// counts — so shard s covers the same entities every iteration: its
	// scratch never crosses shards and its change set indexes exactly the
	// entities it owns.
	routerScratch := make([]*voteScratch, len(shard.Bounds(len(g.Routers), opts.Workers)))
	for i := range routerScratch {
		routerScratch[i] = new(voteScratch)
	}
	ifaceScratch := make([]*voteScratch, len(shard.Bounds(len(g.Interfaces), opts.Workers)))
	for i := range ifaceScratch {
		ifaceScratch[i] = new(voteScratch)
	}
	// changedR[s] and changedI[s] are what shard s committed in the last
	// pass, in index order. The snapshot step reads the routers'; shard
	// after shard they are the iteration's change set, which history
	// keeps: the trace row counts it, the checkpoint keeps it, and explain
	// derives the provenance artifact from it.
	changedR := make([][]ckpt.AnnChange, len(routerScratch))
	changedI := make([][]ckpt.AnnChange, len(ifaceScratch))
	var history []ckpt.IterDelta
	// memo[idx] holds the heuristic tallies of router idx's most recent
	// evaluation, so a skipped router still contributes the counts a
	// re-evaluation would have produced and the convergence trace does
	// not depend on what was skipped.
	var memo []iterTally
	if collect {
		memo = make([]iterTally, len(g.Routers))
	}
	// Step 1 of the first iteration copies every router's annotation.
	// Once an iteration commits in full, every router outside its
	// changed set already satisfies prevAnnotation == Annotation, so
	// later snapshots shrink to the changed routers. A router or
	// interface is evaluated on its first dirty pass (since == iter, so
	// every dirty one on iteration 1): no stamp need say its reads
	// moved, and it has no memoised tally to stand in for an evaluation.
	var mu sync.Mutex //lint:mutex merges per-shard telemetry tallies into the iteration total; never guards annotation state
	for iter := 1; iter <= opts.MaxIterations; iter++ {
		var it iterTally
		src.advance(g, iter)
		// Step 1: snapshot. A cancellation observed here leaves every
		// annotation at the previous iteration's committed state.
		if iter == 1 {
			if !shard.ForCtx(ctx, len(g.Routers), opts.Workers, func(lo, hi int) {
				for _, r := range g.Routers[lo:hi] {
					r.prevAnnotation = r.Annotation
				}
			}) {
				res.Interrupted = true
				break
			}
		} else {
			// The per-shard change sets are disjoint (every router
			// belongs to exactly one shard), so applying them shards
			// cleanly over the sets themselves.
			if !shard.ForCtx(ctx, len(changedR), opts.Workers, func(lo, hi int) {
				for _, cs := range changedR[lo:hi] {
					for _, c := range cs {
						r := g.Routers[c.Idx]
						r.prevAnnotation = r.Annotation
						r.changedIter = int32(iter - 1)
					}
				}
			}) {
				res.Interrupted = true
				break
			}
		}
		// Step 2: routers. The pass either runs in full or not at all
		// (batch-boundary cancellation); a refusal leaves the committed
		// state untouched. A replayed flip lands where an evaluation of
		// that router would have: in index order, before the shard moves on.
		if !shard.ForShardsTimedCtx(ctx, len(g.Routers), opts.Workers, func(s, lo, hi int) {
			var local iterTally
			sc := routerScratch[s]
			chg := changedR[s][:0]
			flips := src.routerFlips(lo)
			for idx := lo; idx < hi; idx++ {
				a, replayed := flips.take(idx)
				since := src.routerSince(idx)
				if !replayed && since == 0 {
					continue // clean, and the base run did not move it either
				}
				r := g.Routers[idx]
				switch {
				case replayed:
					r.Annotation = a
				case r.LastHop:
					continue
				case since == int32(iter) || r.inputsChanged(int32(iter-1)):
					var rt iterTally
					r.Annotation = annotateRouter(r, rels, opts, &rt, sc, nil)
					local.add(&rt)
					if memo != nil {
						memo[idx] = rt
					}
				default:
					if memo != nil {
						local.add(&memo[idx])
					}
					continue
				}
				if r.Annotation != r.prevAnnotation {
					chg = append(chg, ckpt.AnnChange{Idx: uint32(idx), Ann: uint32(r.Annotation)})
				}
			}
			changedR[s] = chg
			if collect {
				mu.Lock()
				it.add(&local)
				mu.Unlock()
			}
		}, routerTiming) {
			res.Interrupted = true
			break
		}
		// Step 3: interfaces. A cancellation observed here arrives after
		// the router pass already wrote iteration iter's router
		// annotations; roll those back to the snapshot so the partial
		// result is exactly the last fully committed iteration — never a
		// mixed state with new routers and old interfaces.
		if !shard.ForShardsTimedCtx(ctx, len(g.Interfaces), opts.Workers, func(s, lo, hi int) {
			sc := ifaceScratch[s]
			chg := changedI[s][:0]
			flips := src.ifaceFlips(lo)
			for idx := lo; idx < hi; idx++ {
				a, replayed := flips.take(idx)
				since := src.ifaceSince(idx)
				if !replayed && since == 0 {
					continue
				}
				i := g.Interfaces[idx]
				prev := i.Annotation
				switch {
				case replayed:
					i.Annotation = a
				case since == int32(iter) || i.votersChanged():
					annotateInterface(i, rels, sc, nil)
				default:
					continue
				}
				if i.Annotation != prev {
					i.changedIter = int32(iter)
					chg = append(chg, ckpt.AnnChange{Idx: uint32(idx), Ann: uint32(i.Annotation)})
				}
			}
			changedI[s] = chg
		}, ifaceTiming) {
			//lint:ignore ctxflow the rollback must run precisely because ctx is already cancelled: it restores the snapshot so the partial result is the last committed iteration
			shard.For(len(g.Routers), opts.Workers, func(lo, hi int) {
				for _, r := range g.Routers[lo:hi] {
					r.Annotation = r.prevAnnotation
				}
			})
			res.Interrupted = true
			break
		}
		res.Iterations = iter
		if err := src.reached(g, iter); err != nil {
			ph.End()
			return nil, err
		}
		// The change set, shard after shard: ascending index order.
		delta := ckpt.IterDelta{Routers: slices.Concat(changedR...), Ifaces: slices.Concat(changedI...)}
		history = append(history, delta)
		var row obs.Row
		if collect {
			// An iteration src replayed whole is the base's, tallies and all.
			if row = src.row(iter); row == nil {
				row = it.row(iter, delta)
			}
			trace.Append(row)
			counters.flush(row)
		}
		n, repeated := cycles.record(g.stateHash(), iter)
		if repeated {
			res.Converged, res.CycleLength = true, n
		}
		// Checkpoint after cycle detection so a converged iteration's
		// state carries the convergence, but before hookIterEnd so
		// crash points injected through the hook see a durable state.
		if ckr != nil {
			if err := ckr.commit(res, row, delta, repeated || iter == opts.MaxIterations); err != nil {
				ph.End()
				return nil, err
			}
		}
		if opts.hookIterEnd != nil {
			opts.hookIterEnd(iter)
		}
		if repeated {
			break
		}
	}
	if ckr != nil && res.Interrupted {
		if err := ckr.interrupted(); err != nil {
			ph.End()
			return nil, err
		}
	}
	src.gauges(rec)
	rec.Gauge("refine.iterations").Set(int64(res.Iterations))
	rec.Gauge("refine.cycle_length").Set(int64(res.CycleLength))
	rec.Gauge("refine.converged").Set(b2i(res.Converged))
	ph.Note("iterations", int64(res.Iterations))
	if opts.Provenance {
		res.Provenance = explain(g, rels, opts, history, res)
		if rec.Enabled() {
			recordProvAggregates(rec, res.Provenance)
		}
	}
	ph.End()
	if res.CycleLength > 1 && rec.Enabled() {
		// §6.3 stops on any repeated state, but a cycle longer than a
		// fixed point means the loop oscillates between annotation
		// states; surface which iterations kept flipping and how many
		// routers each flipped (satellite diagnosability requirement).
		first := res.Iterations - res.CycleLength + 1
		flips := make([]int, 0, res.CycleLength)
		for _, d := range history[first-1:] {
			flips = append(flips, len(d.Routers))
		}
		rec.Warnf("refinement oscillates: state repeats with cycle length %d (iterations %d-%d); changed routers per iteration in the cycle: %v",
			res.CycleLength, first, res.Iterations, flips)
	}
	if res.Interrupted {
		rec.MarkInterrupted()
		rec.Warnf("run cancelled after iteration %d of at most %d; annotations are the last committed iteration's partial result",
			res.Iterations, opts.MaxIterations)
	}
	// A resume stopped before its state's iteration does not hold that state.
	if ckr != nil && res.Iterations >= res.ResumedFrom {
		res.Checkpoint = ckr.st
	}
	res.Report = rec.Report()
	// Set the flags on the snapshot directly too, so a run without a
	// Recorder (whose Report is the empty nil-recorder snapshot) still
	// reports the interruption and the resume point.
	res.Report.Interrupted = res.Interrupted
	if res.ResumedFrom > 0 {
		res.Report.ResumedFrom = res.ResumedFrom
	}
	return res, nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// inputsChanged reports whether anything annotateRouter reads for r
// changed during iteration last: r's own committed annotation (the
// keep-previous fallback), or, across the links it votes over, the
// subsequent interface's annotation or its owning router's. When none
// did, annotateRouter would return r's current annotation with the
// tallies and provenance of its previous evaluation.
//
//lint:hotpath
func (r *Router) inputsChanged(last int32) bool {
	if r.changedIter == last {
		return true
	}
	for _, l := range r.voteLinks {
		if l.To.changedIter == last || l.To.Router.changedIter == last {
			return true
		}
	}
	return false
}

// votersChanged reports whether the router pass that just ran changed
// any annotation annotateInterface reads for i: its owning router's or
// that of a router behind an incoming link. prevAnnotation still holds
// the pre-pass value, so the comparison needs no extra state.
//
//lint:hotpath
func (i *Interface) votersChanged() bool {
	if i.Router.Annotation != i.Router.prevAnnotation {
		return true
	}
	for _, l := range i.InLinks {
		if l.From.Annotation != l.From.prevAnnotation {
			return true
		}
	}
	return false
}

// annotateRouter implements Algorithm 2 (§6.1): link votes with the
// Algorithm 3 heuristics, reallocated-prefix correction, interface
// votes, exception checks, the relationship-restricted election, and
// the hidden-AS check. All working storage comes from the shard's
// scratch sc. A non-nil pr, zero but for its Iter, receives the
// decision's provenance (rule, tally, tie path); it is written to, never
// read, so it cannot influence the annotation.
//
//lint:hotpath
func annotateRouter(r *Router, rels RelationshipOracle, opts Options, t *iterTally, sc *voteScratch, pr *prov.Record) asn.ASN {
	sc.votes, sc.cast = sc.votes[:0], sc.cast[:0]
	for _, l := range r.voteLinks {
		a := linkHeuristics(l, rels, opts, t)
		sc.cast = append(sc.cast, a)
		if a != asn.None {
			t[votesCast]++
			sc.votes.Add(a, 1)
		}
	}
	sc.linkVote = append(sc.linkVote[:0], sc.cast...)

	if !opts.DisableRealloc {
		fixReallocatedVotes(r, rels, t, sc)
	}

	// Alg. 2 line 9: each IR interface votes with its origin AS.
	for _, i := range r.Interfaces {
		if i.Origin != asn.None {
			t[votesCast]++
			sc.votes.Add(i.Origin, 1)
		}
	}
	votes := sc.votes

	if !opts.DisableExceptions {
		if a, ok := exceptionCases(r, rels, sc); ok {
			t[heurException]++
			if pr != nil {
				pr.Rule = prov.RuleException
				fillTally(pr, votes, a)
			}
			return a
		}
	}

	if len(votes) == 0 {
		// Nothing to vote with (all interfaces and neighbours
		// unannounced); keep the previous annotation so propagated
		// annotations survive (§6.1.1 unannounced-address chains).
		if pr != nil {
			pr.Rule = prov.RuleKeepPrevious
			pr.Winner = r.prevAnnotation
		}
		return r.prevAnnotation
	}

	// Alg. 2 lines 11–12: restrict the election to origin ASes plus
	// subsequent ASes with a relationship to an origin on their links.
	sc.restricted = append(sc.restricted[:0], r.OriginSet...)
	grew := false
	for i, l := range r.voteLinks {
		grew = sc.admit(sc.linkVote[i], l, rels) || grew
		if sc.cast[i] != sc.linkVote[i] {
			grew = sc.admit(sc.cast[i], l, rels) || grew
		}
	}
	if grew {
		if w := electFrom(r, rels, opts, t, sc, pr); w != asn.None {
			if pr != nil {
				pr.Rule = prov.RuleRestrictedElection
				fillTally(pr, votes, w)
			}
			return w
		}
	}

	// Alg. 2 lines 13–14: unrestricted election, then hidden-AS check.
	sc.top, _ = votes.Max(sc.top)
	a := breakTie(r, sc.top, rels, opts, t, sc, pr)
	if pr != nil {
		pr.Rule = prov.RuleElection
		fillTally(pr, votes, a)
	}
	if opts.DisableHiddenAS || a == asn.None {
		return a
	}
	h := hiddenAS(r, a, rels, sc)
	if h != a {
		t[heurHiddenAS]++
		if pr != nil {
			// The hidden AS displaced the election winner: record the
			// bridge as the winner and the displaced AS as runner-up.
			pr.Rule = prov.RuleHiddenAS
			pr.Winner = h
			pr.WinnerVotes = votes.Count(h)
			pr.RunnerUp = a
			pr.RunnerUpVotes = votes.Count(a)
		}
	}
	return h
}

// admit adds v, a vote l cast or holds, to the restricted election when
// it still has votes and a relationship with one of l's origins, and
// reports whether it did. The IR's own origins are in the set from the
// start, so Has also answers "is v one of them".
//
//lint:hotpath
func (sc *voteScratch) admit(v asn.ASN, l *Link, rels RelationshipOracle) bool {
	if v == asn.None || sc.restricted.Has(v) || sc.votes.Count(v) == 0 {
		return false
	}
	for _, o := range l.origins {
		if rels.HasRelationship(o, v) {
			return sc.restricted.Add(v)
		}
	}
	return false
}

// electFrom picks the AS with the most votes among sc.restricted.
// asn.None when none of them has votes.
//
//lint:hotpath
func electFrom(r *Router, rels RelationshipOracle, opts Options, t *iterTally, sc *voteScratch, pr *prov.Record) asn.ASN {
	tied, best := sc.tied[:0], int32(0)
	for _, v := range sc.votes {
		switch {
		case !sc.restricted.Has(v.AS):
		case v.N > best:
			best = v.N
			tied = append(tied[:0], v.AS)
		case v.N == best:
			tied = append(tied, v.AS)
		}
	}
	sc.tied = tied
	if best == 0 {
		return asn.None
	}
	return breakTie(r, tied, rels, opts, t, sc, pr)
}

// breakTie resolves a vote tie: first (unless ablated) toward the AS
// whose customer cone covers the most of the IR's destination ASes,
// then toward the smallest customer cone (§6.1.4: "the most likely
// customer AS"). A non-nil pr accumulates the tie-break stages walked.
//
//lint:hotpath
func breakTie(r *Router, tied []asn.ASN, rels RelationshipOracle, opts Options, t *iterTally, sc *voteScratch, pr *prov.Record) asn.ASN {
	if len(tied) <= 1 {
		if pr != nil {
			pr.Tie |= prov.TieSingle
		}
		return rels.SmallestCone(tied)
	}
	if !opts.DisableDestTieBreak && r.DestASes.Len() > 0 {
		// Restrict to candidates whose customer cone accounts for every
		// destination probed through the router: on edge routers the
		// destinations concentrate inside the true operator's cone,
		// while on transit routers (global destination sets) no
		// candidate qualifies and the rule stays silent.
		full := sc.full[:0]
		for _, v := range tied {
			cone := rels.CustomerCone(v)
			all := true
			for _, d := range r.DestASes {
				if !cone.Has(d) {
					all = false
					break
				}
			}
			if all {
				full = append(full, v)
			}
		}
		sc.full = full
		if len(full) > 0 {
			t[heurDestTie]++
			if pr != nil {
				pr.Tie |= prov.TieDestFull
			}
			tied = full
		} else if r.DestASes.Len() <= 10 {
			// Small (edge) destination sets: a unique best-coverage
			// candidate still identifies the operator even when one
			// destination escapes its visible cone. Large destination
			// sets stay with the paper's smallest-cone rule — there,
			// coverage only measures cone size.
			best, bestCover := sc.best[:0], 0
			for _, v := range tied {
				cone := rels.CustomerCone(v)
				cover := 0
				for _, d := range r.DestASes {
					if cone.Has(d) {
						cover++
					}
				}
				switch {
				case cover > bestCover:
					best, bestCover = append(best[:0], v), cover
				case cover == bestCover && cover > 0:
					best = append(best, v)
				}
			}
			sc.best = best
			if len(best) == 1 {
				t[heurDestTie]++
				if pr != nil {
					pr.Tie |= prov.TieDestBest
				}
				return best[0]
			}
		}
	}
	if pr != nil && len(tied) > 1 {
		pr.Tie |= prov.TieSmallestCone
	}
	return rels.SmallestCone(tied)
}

// linkHeuristics implements Algorithm 3 (§6.1.1): the vote contributed
// by one link, with special cases for IXP addresses, unannounced
// addresses, and third-party addresses.
func linkHeuristics(l *Link, rels RelationshipOracle, opts Options, t *iterTally) asn.ASN {
	j := l.To
	origins := l.origins

	// Line 1: subsequent origin already among the link's origins.
	if j.Origin != asn.None && origins.Has(j.Origin) {
		t[heurOriginMatch]++
		return j.Origin
	}
	// Line 2: IXP public peering address → the likely transit provider:
	// the link origin AS with the largest customer cone (valley-free
	// reasoning, §6.1.1).
	if j.Kind == ip2as.IXP {
		t[heurIXP]++
		return rels.LargestCone(origins)
	}
	// The neighbour IR's annotation comes from the previous iteration's
	// snapshot: within an iteration every router reads the same
	// committed state regardless of shard or worker count.
	asj := j.Router.prevAnnotation
	// Lines 4–5: unannounced subsequent address → vote for its IR's
	// annotation, which propagates across unannounced chains (Fig. 8).
	if j.Origin == asn.None {
		t[heurUnannounced]++
		return asj
	}
	// Lines 6–8: third-party test. The reply may have come from an
	// off-path interface owned by a third AS; detect via (1) an AS
	// relationship between a link origin and j's router annotation that
	// bypasses j's origin, and (2) j's origin never being a destination
	// of probes crossing this link.
	if !opts.DisableThirdParty && asj != asn.None && j.Origin != asj {
		bypass := false
		for _, o := range origins {
			if rels.HasRelationship(o, asj) {
				bypass = true
				break
			}
		}
		if bypass && !l.DestASes.Has(j.Origin) {
			t[heurThirdParty]++
			return asj
		}
	}
	// Line 9: the interface's current annotation.
	return j.Annotation
}

// fixReallocatedVotes implements §6.1.2: when every subsequent interface
// whose origin is in the IR's origin set (a) shares a single /24, (b)
// belongs to IRs annotated with one single AS, and (c) that AS is a
// customer of an IR origin AS, the addresses are inferred to be a
// reallocated prefix and their votes move from the provider to the
// customer.
//
//lint:hotpath
func fixReallocatedVotes(r *Router, rels RelationshipOracle, t *iterTally, sc *voteScratch) {
	cands := sc.cands[:0]
	for i, l := range r.voteLinks {
		if l.To.Origin != asn.None && r.OriginSet.Has(l.To.Origin) {
			cands = append(cands, i)
		}
	}
	sc.cands = cands
	if len(cands) < 2 {
		return // require multiple links (§6.1.2)
	}
	var annot asn.ASN
	var prefix netip.Prefix
	for n, i := range cands {
		to := r.voteLinks[i].To
		a := to.Router.prevAnnotation // previous iteration's snapshot
		p := netutil.Slash24(to.Addr)
		if n == 0 {
			annot, prefix = a, p
			continue
		}
		if a != annot || p != prefix {
			return
		}
	}
	if annot == asn.None {
		return
	}
	isCustomer := false
	for _, o := range r.OriginSet {
		if rels.IsProvider(o, annot) {
			isCustomer = true
			break
		}
	}
	if !isCustomer {
		return
	}
	for _, i := range cands {
		old := sc.linkVote[i]
		if old == asn.None || old == annot {
			continue
		}
		sc.votes.Add(old, -1)
		sc.votes.Add(annot, 1)
		t[heurRealloc]++
		sc.linkVote[i] = annot
	}
}

// exceptionCases implements §6.1.3: the multihomed-customer exception
// and the multiple-peers/providers exception. ok reports whether an
// exception fired.
//
//lint:hotpath
func exceptionCases(r *Router, rels RelationshipOracle, sc *voteScratch) (asn.ASN, bool) {
	sc.subs = sc.subs[:0]
	for _, v := range sc.linkVote {
		if v != asn.None {
			sc.subs.Add(v)
		}
	}
	subs := sc.subs

	// Multihomed to a provider: a single subsequent AS that is a
	// customer of an IR origin AS operates the router (Fig. 11).
	if len(subs) == 1 {
		asj := subs[0]
		if !r.OriginSet.Has(asj) {
			for _, o := range r.OriginSet {
				if rels.IsProvider(o, asj) {
					return asj, true
				}
			}
		}
	}

	// Multiple peers/providers: the common denominator operates the IR,
	// provided it retains at least half the top vote count.
	var maxVotes int32
	for _, v := range sc.votes {
		maxVotes = max(maxVotes, v.N)
	}

	if r.OriginSet.Len() == 1 && len(subs) > 1 {
		origin := r.OriginSet[0]
		all := true
		for _, s := range subs {
			if s != origin && !rels.IsPeer(origin, s) && !rels.IsProvider(s, origin) {
				all = false
				break
			}
		}
		if all && sc.votes.Count(origin)*2 >= maxVotes {
			return origin, true
		}
	}
	if r.OriginSet.Len() > 1 && len(subs) == 1 {
		s := subs[0]
		all := true
		for _, o := range r.OriginSet {
			if o != s && !rels.IsPeer(s, o) && !rels.IsProvider(s, o) {
				all = false
				break
			}
		}
		if all && !r.OriginSet.Has(s) && sc.votes.Count(s)*2 >= maxVotes {
			return s, true
		}
	}
	return asn.None, false
}

// hiddenAS implements §6.1.5: when the selected AS has no relationship
// with any IR origin AS, look for a single AS bridging the link origins
// and the selection — a customer of a link origin that is a provider of
// the selection (Fig. 12) — and use it instead.
//
//lint:hotpath
func hiddenAS(r *Router, selected asn.ASN, rels RelationshipOracle, sc *voteScratch) asn.ASN {
	if r.OriginSet.Has(selected) {
		return selected
	}
	for _, o := range r.OriginSet {
		if rels.HasRelationship(o, selected) {
			return selected
		}
	}
	backing := sc.backing[:0]
	for i, l := range r.voteLinks {
		if sc.linkVote[i] == selected || sc.cast[i] == selected {
			backing = append(backing, l.origins...)
		}
	}
	sc.backing = backing
	n, bridge := bridges(rels, selected, backing)
	if n == 0 {
		// Fall back to the IR origin set when the links carried no
		// origins (e.g. all unannounced).
		n, bridge = bridges(rels, selected, r.OriginSet)
	}
	if n == 1 {
		return bridge
	}
	return selected
}

// bridges counts the providers of a that are customers of an AS in over,
// and returns the smallest: the bridge, when it is the only one.
//
//lint:hotpath
func bridges(rels RelationshipOracle, a asn.ASN, over []asn.ASN) (n int, bridge asn.ASN) {
	for _, p := range rels.Providers(a) {
		for _, o := range over {
			if rels.IsProvider(o, p) {
				if n++; n == 1 || p < bridge {
					bridge = p
				}
				break
			}
		}
	}
	return n, bridge
}

// annotateInterface implements §6.2: align each interface's annotation
// with the router it connects to. When the interface's origin differs
// from its IR's annotation the origin identifies the far router;
// otherwise the connected IRs vote, weighted by how many of their
// interfaces preceded this one in traceroutes. A non-nil pir receives
// the branch that decided the annotation.
//
//lint:hotpath
func annotateInterface(i *Interface, rels RelationshipOracle, sc *voteScratch, pir *prov.IfaceRule) {
	if i.Kind == ip2as.IXP || i.Origin == asn.None {
		if pir != nil {
			*pir = prov.IfaceStatic
		}
		return
	}
	if i.Origin != i.Router.Annotation {
		if pir != nil {
			*pir = prov.IfaceOffPath
		}
		i.Annotation = i.Origin
		return
	}
	// Restrict the vote to the highest-confidence in-links available
	// (§4.2's class hierarchy): a Nexthop link identifies the connected
	// router far more reliably than a Multihop link bridging a gap.
	best := LabelMultihop
	for _, l := range i.InLinks {
		if l.Label > best {
			best = l.Label
		}
	}
	sc.votes = sc.votes[:0]
	for _, l := range i.InLinks {
		if l.Label != best {
			continue
		}
		if a := l.From.Annotation; a != asn.None {
			sc.votes.Add(a, int32(len(l.Prev)))
		}
	}
	top, _ := sc.votes.Max(sc.top)
	sc.top = top
	switch len(top) {
	case 0:
		if pir != nil {
			*pir = prov.IfaceOriginFallback
		}
		i.Annotation = i.Origin
	case 1:
		if pir != nil {
			*pir = prov.IfaceVote
		}
		i.Annotation = top[0]
	default:
		related := sc.related[:0]
		for _, t := range top {
			if rels.HasRelationship(t, i.Origin) {
				related = append(related, t)
			}
		}
		sc.related = related
		if len(related) > 0 {
			if pir != nil {
				*pir = prov.IfaceVoteRelated
			}
			i.Annotation = rels.LargestCone(related)
		} else {
			if pir != nil {
				*pir = prov.IfaceOriginFallback
			}
			i.Annotation = i.Origin
		}
	}
}

// stateHash hashes the complete annotation state for repeated-state
// detection (§6.3).
func (g *Graph) stateHash() uint64 {
	h := ckpt.NewFingerprinter()
	var buf [4]byte
	write := func(a asn.ASN) {
		buf[0] = byte(a >> 24)
		buf[1] = byte(a >> 16)
		buf[2] = byte(a >> 8)
		buf[3] = byte(a)
		h.Write(buf[:])
	}
	for _, r := range g.Routers {
		write(r.Annotation)
	}
	for _, i := range g.Interfaces {
		write(i.Annotation)
	}
	return h.Sum64()
}
