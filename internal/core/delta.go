package core

import (
	"context"
	"slices"
	"sort"
	"sync"

	"repro/internal/asn"
	"repro/internal/ckpt"
	"repro/internal/obs"
	"repro/internal/shard"
)

// Delta refinement absorbs a new trace batch without re-running the
// full iterative loop. The insight is that both annotation passes read
// only local, structurally determined inputs: a router's vote (§6,
// Alg. 2) reads its own structure plus the previous-iteration
// annotations of the interfaces it links to and their owning routers;
// an interface's election (Alg. 3) reads its own structure plus the
// current-iteration annotations of its owning router and of the
// routers behind its incoming links. So after merging a batch into the
// graph, any entity whose structural inputs are byte-identical to the
// base run's — and whose annotation inputs come from entities that are
// themselves clean — must commit exactly the value the base run
// committed at that iteration. Those values are already recorded:
// version-3 checkpoints carry the full per-iteration change history.
//
// The engine therefore seeds a dirty set from what the batch touched
// (new or changed routers and interfaces, marked by the Builder as it
// appended the batch), grows it one influence hop per
// iteration (dirtiness propagates along links exactly as fast as
// annotations do), recomputes only dirty entities, and replays the
// base history onto everything else. Past the base run's recorded
// horizon the replay uses the detected cycle: a converged base state
// is periodic (state(N) == state(N-c) and the update is
// deterministic), so change sets repeat with period c. A base that
// never converged offers nothing to replay past its horizon, and the
// engine falls back to recomputing everything. Convergence detection
// is a fresh cycle detector over the full merged state hash — the same
// §6.3 stopping rule, stopping exactly where a from-scratch run on the
// merged corpus would. The equivalence is per-iteration and byte-
// exact, which is what the ingest pipeline's -verify-delta oracle
// checks end to end.

// deltaSeed is the dirty set of a delta run, plus the index mappings
// replay needs. "Merged" names the graph after the append — base corpus
// plus batch — and "base" the same graph before it, which is what the
// base checkpoint's indices refer to.
type deltaSeed struct {
	// rdirty/idirty mark merged routers (by ID) and interfaces (by
	// sorted position) that must be recomputed rather than replayed.
	// Seeded structurally, grown one hop per iteration.
	rdirty, idirty []bool
	// frontier holds the interface positions newly dirtied by the most
	// recent expansion; the next expansion dirties their voters.
	frontier []int
	// baseToMergedR maps a base router ID to its merged ID;
	// baseToMergedI maps base sorted positions to merged ones. Both are
	// monotone on the clean subset: appending inserts into the sorted
	// orders and moves only routers whose representative changed, which
	// are dirty.
	baseToMergedR []int
	baseToMergedI []int
	// structRouters/structIfaces count the structurally dirty seeds,
	// for observability.
	structRouters, structIfaces int
}

// seedFromAppend turns the record of the Finish that appended the batch
// into the delta run's structural seed. The Builder marked a router or
// interface at every statement that changed structure an annotation
// pass reads through it, so the touched set is the seed, and the
// position maps that Finish produced carry base indices onto the graph
// as it now is. Identity crosses an append by object: alias sets are an
// input, not an inference, so a router keeps its interfaces, and one
// whose representative address changed was touched.
func seedFromAppend(g *Graph, app *Append) *deltaSeed {
	s := &deltaSeed{
		rdirty:        make([]bool, len(g.Routers)),
		idirty:        make([]bool, len(g.sortedIfaces)),
		frontier:      slices.Clone(app.ifaces),
		baseToMergedR: app.routerPos,
		baseToMergedI: app.ifacePos,
		structRouters: len(app.routers),
		structIfaces:  len(app.ifaces),
	}
	for _, id := range app.routers {
		s.rdirty[id] = true
	}
	for _, idx := range app.ifaces {
		s.idirty[idx] = true
	}
	// Iteration 0 is purely structural (interface origins plus last-hop
	// annotation), so the initial frontier is the structural interface
	// seed plus the influence surface of the structurally dirty
	// routers: member interfaces and link targets read router values
	// from iteration 0 onward.
	s.expandRouters(g, app.routers)
	return s
}

// expandRouters marks the interfaces whose next committed value
// depends on a router in newRD: the routers' member interfaces (an
// interface election reads its owning router's annotation) and their
// link targets (a link target's election counts a vote from the
// router behind the link).
func (s *deltaSeed) expandRouters(g *Graph, newRD []int) {
	for _, id := range newRD {
		r := g.Routers[id]
		for _, i := range r.Interfaces {
			if idx := int(i.pos); !s.idirty[idx] {
				s.idirty[idx] = true
				s.frontier = append(s.frontier, idx)
			}
		}
		//lint:ignore maporder sets membership bits and appends to an unordered work-list; the resulting dirty sets are iteration-order independent
		for _, l := range r.Links {
			if idx := int(l.To.pos); !s.idirty[idx] {
				s.idirty[idx] = true
				s.frontier = append(s.frontier, idx)
			}
		}
	}
}

// expand advances the dirty wavefront one iteration: every router
// voting on a frontier interface becomes dirty (its next vote reads a
// value the base run did not commit), and the newly dirty routers'
// influence surface becomes the next frontier. Routers reading a
// dirty interface's *owner* are covered transitively: the owner's
// divergence surfaces through its member interfaces, which are
// already in the frontier.
func (s *deltaSeed) expand(g *Graph) {
	frontier := s.frontier
	s.frontier = nil
	var newRD []int
	for _, jIdx := range frontier {
		for _, l := range g.sortedIfaces[jIdx].InLinks {
			if id := l.From.ID; !s.rdirty[id] {
				s.rdirty[id] = true
				newRD = append(newRD, id)
			}
		}
	}
	s.expandRouters(g, newRD)
}

// counts reports how many routers and interfaces are currently dirty.
func (s *deltaSeed) counts() (nr, ni int) {
	for _, d := range s.rdirty {
		if d {
			nr++
		}
	}
	for _, d := range s.idirty {
		if d {
			ni++
		}
	}
	return nr, ni
}

// allDirty abandons replay: everything recomputes from here on.
func (s *deltaSeed) allDirty() {
	for i := range s.rdirty {
		s.rdirty[i] = true
	}
	for i := range s.idirty {
		s.idirty[i] = true
	}
	s.frontier = nil
}

// DeltaBaseError reports a base checkpoint or configuration delta
// refinement cannot work from; the message says what to do instead.
type DeltaBaseError struct{ Reason string }

func (e *DeltaBaseError) Error() string { return "core: delta refinement: " + e.Reason }

// RunDeltaContext anneals the merged graph — the base corpus plus the
// batch its Builder just appended — into its converged annotation state
// by replaying the base run's recorded trajectory over structurally
// clean entities and recomputing only the dirty frontier. The committed
// state after every iteration is byte-identical to the state a
// from-scratch RunContext over the merged corpus commits at that
// iteration, at every worker count; the run therefore converges on the
// same iteration with the same final annotations.
//
// app is the Builder's record of the Finish that appended the batch
// (Builder.LastAppend), and baseState a complete version-3 snapshot
// (RequireHistory) of a run over the graph as it was before that
// Finish — checked against the digest the graph carried then. Whatever
// annotations the graph still holds from that run are discarded.
// Provenance collection is refused — replayed iterations carry no vote
// trace to record — as is resuming: a delta run is always computed
// whole from the replayed trajectory.
func RunDeltaContext(ctx context.Context, merged *Graph, app *Append, baseState *ckpt.State, rels RelationshipOracle, opts Options) (*Result, error) {
	opts.setDefaults()
	rec := opts.Recorder
	if opts.Provenance {
		return nil, &DeltaBaseError{Reason: "provenance collection is not supported (replayed iterations carry no vote trace); run the full pipeline with provenance instead"}
	}
	if opts.Checkpoint != nil && opts.Checkpoint.Resume {
		return nil, &DeltaBaseError{Reason: "resume is not supported; a delta run recomputes from the base trajectory (rerun without resume)"}
	}
	if app == nil || app.graph != merged || app.finish != merged.finishes {
		return nil, &DeltaBaseError{Reason: "the append record does not describe the graph's most recent Finish"}
	}
	if err := baseState.RequireHistory(); err != nil {
		return nil, err
	}
	if fp := (&opts).fingerprint(); fp != baseState.OptionsFP {
		return nil, &ckpt.MismatchError{Field: "options", Want: baseState.OptionsFP, Got: fp}
	}
	if app.baseDigest != baseState.GraphDigest {
		return nil, &ckpt.MismatchError{Field: "graph", Want: baseState.GraphDigest, Got: app.baseDigest}
	}
	if len(baseState.Routers) != len(app.routerPos) {
		return nil, &ckpt.MismatchError{Field: "routers", Want: uint64(len(baseState.Routers)), Got: uint64(len(app.routerPos))}
	}
	if len(baseState.Ifaces) != len(app.ifacePos) {
		return nil, &ckpt.MismatchError{Field: "interfaces", Want: uint64(len(baseState.Ifaces)), Got: uint64(len(app.ifacePos))}
	}

	if ctx.Err() != nil {
		res := &Result{Graph: merged, Interrupted: true}
		rec.MarkInterrupted()
		res.Report = rec.Report()
		res.Report.Interrupted = true
		return res, nil
	}

	// The graph was appended to in place: it still carries the base run's
	// converged annotations, and the trajectory starts from none.
	merged.ResetAnnotations()
	lh := rec.Phase("lasthop")
	annotateLastHops(merged, rels, opts, nil)
	lh.Note("lasthop_irs", int64(merged.Stats.LastHopIRs))
	lh.End()

	sd := rec.Phase("delta-seed")
	seed := seedFromAppend(merged, app)
	sd.Note("struct_dirty_routers", int64(seed.structRouters))
	sd.Note("struct_dirty_ifaces", int64(seed.structIfaces))
	sd.End()
	rec.Gauge("delta.struct_dirty_routers").Set(int64(seed.structRouters))
	rec.Gauge("delta.struct_dirty_ifaces").Set(int64(seed.structIfaces))

	ph := rec.Phase("refine")
	rec.Gauge("refine.workers").Set(int64(opts.Workers))
	counters := newRefineCounters(rec)
	trace := rec.Series("refine.iterations")

	cycles := newCycleDetector()
	res := &Result{Graph: merged}
	var ckr *ckptRunner
	if opts.Checkpoint != nil {
		ckr = newCkptRunner(opts.Checkpoint, &opts, merged)
	}
	collect := rec.Enabled() || ckr != nil
	var traceRows []obs.Row

	routerScratch := make([]*voteScratch, len(shard.Bounds(len(merged.Routers), opts.Workers)))
	for i := range routerScratch {
		routerScratch[i] = newVoteScratch()
	}
	ifaceScratch := make([]*voteScratch, len(shard.Bounds(len(merged.sortedIfaces), opts.Workers)))
	for i := range ifaceScratch {
		ifaceScratch[i] = newVoteScratch()
	}
	var histR, histI [][]ckpt.AnnChange
	if ckr != nil {
		histR = make([][]ckpt.AnnChange, len(routerScratch))
		histI = make([][]ckpt.AnnChange, len(ifaceScratch))
	}

	baseN := baseState.Iteration
	cycleLen := baseState.CycleLength
	// replayFor returns the base change set reproducing iteration iter
	// of a full run over the base corpus, or ok=false when the base
	// trajectory offers nothing (an unconverged base past its horizon).
	replayFor := func(iter int) (ckpt.IterDelta, bool) {
		if iter <= baseN {
			return baseState.History[iter-1], true
		}
		if !baseState.Converged {
			return ckpt.IterDelta{}, false
		}
		// Past the horizon a converged base is periodic: state(N) ==
		// state(N-c) and the update is deterministic, so change sets
		// repeat with period c. (c == 1 indexes the final, empty set.)
		m := baseN - cycleLen + 1 + (iter-baseN-1)%cycleLen
		return baseState.History[m-1], true
	}

	var mu sync.Mutex //lint:mutex merges per-shard telemetry tallies into the iteration total; never guards annotation state
	for iter := 1; iter <= opts.MaxIterations; iter++ {
		var it iterTally
		replay, haveReplay := replayFor(iter)
		if !haveReplay {
			seed.allDirty()
		} else {
			seed.expand(merged)
		}

		// Step 1: snapshot everything. Delta runs always snapshot in
		// full — replayed flips land on routers outside any recompute
		// set, so the shrunk-snapshot optimization does not apply.
		if !shard.ForCtx(ctx, len(merged.Routers), opts.Workers, func(lo, hi int) {
			for _, r := range merged.Routers[lo:hi] {
				r.prevAnnotation = r.Annotation
			}
		}) {
			res.Interrupted = true
			break
		}

		// Step 2: routers. Dirty ones recompute (their inputs may have
		// diverged from the base run); clean ones replay the base
		// change set below.
		if !shard.ForShardsTimedCtx(ctx, len(merged.Routers), opts.Workers, func(s, lo, hi int) {
			var local iterTally
			sc := routerScratch[s]
			var hr []ckpt.AnnChange
			if histR != nil {
				hr = histR[s][:0]
			}
			for idx := lo; idx < hi; idx++ {
				r := merged.Routers[idx]
				if !seed.rdirty[idx] || r.LastHop {
					continue
				}
				r.Annotation = annotateRouter(r, rels, opts, &local, sc, nil)
				if r.Annotation != r.prevAnnotation {
					local.changedRouters++
					if histR != nil {
						hr = append(hr, ckpt.AnnChange{Idx: uint32(idx), Ann: uint32(r.Annotation)})
					}
				}
			}
			if histR != nil {
				histR[s] = hr
			}
			if collect {
				mu.Lock()
				it.add(&local)
				mu.Unlock()
			}
		}, nil) {
			res.Interrupted = true
			break
		}
		var replayedR []ckpt.AnnChange
		for _, c := range replay.Routers {
			id := seed.baseToMergedR[c.Idx]
			if seed.rdirty[id] {
				continue
			}
			r := merged.Routers[id]
			r.Annotation = asn.ASN(c.Ann)
			if r.Annotation != r.prevAnnotation {
				it.changedRouters++
				replayedR = append(replayedR, ckpt.AnnChange{Idx: uint32(id), Ann: c.Ann})
			}
		}

		// Step 3: interfaces, same split. A cancellation here rolls the
		// routers back to the snapshot so the partial result is the
		// last fully committed iteration.
		if !shard.ForShardsTimedCtx(ctx, len(merged.sortedIfaces), opts.Workers, func(s, lo, hi int) {
			var flipped int64
			sc := ifaceScratch[s]
			var hi2 []ckpt.AnnChange
			if histI != nil {
				hi2 = histI[s][:0]
			}
			for idx := lo; idx < hi; idx++ {
				if !seed.idirty[idx] {
					continue
				}
				i := merged.sortedIfaces[idx]
				prev := i.Annotation
				annotateInterface(i, rels, sc, nil)
				if i.Annotation != prev {
					flipped++
					if histI != nil {
						hi2 = append(hi2, ckpt.AnnChange{Idx: uint32(idx), Ann: uint32(i.Annotation)})
					}
				}
			}
			if histI != nil {
				histI[s] = hi2
			}
			if collect {
				mu.Lock()
				it.changedIfaces += flipped
				mu.Unlock()
			}
		}, nil) {
			//lint:ignore ctxflow the rollback must run precisely because ctx is already cancelled: it restores the snapshot so the partial result is the last committed iteration
			shard.For(len(merged.Routers), opts.Workers, func(lo, hi int) {
				for _, r := range merged.Routers[lo:hi] {
					r.Annotation = r.prevAnnotation
				}
			})
			res.Interrupted = true
			break
		}
		var replayedI []ckpt.AnnChange
		for _, c := range replay.Ifaces {
			idx := seed.baseToMergedI[c.Idx]
			if seed.idirty[idx] {
				continue
			}
			i := merged.sortedIfaces[idx]
			if uint32(i.Annotation) != c.Ann {
				i.Annotation = asn.ASN(c.Ann)
				it.changedIfaces++
				replayedI = append(replayedI, ckpt.AnnChange{Idx: uint32(idx), Ann: c.Ann})
			}
		}

		res.Iterations = iter
		if ckr != nil {
			// Replayed flips belong in the recorded history too — the
			// committed change set covers clean and dirty entities
			// alike, and the next delta run replays this history.
			foldReplayed(histR, replayedR, len(merged.Routers), opts.Workers)
			foldReplayed(histI, replayedI, len(merged.sortedIfaces), opts.Workers)
			ckr.appendHistory(histR, histI)
		}
		if collect {
			row := it.row(iter)
			traceRows = append(traceRows, row)
			trace.Append(row)
			counters.flush(&it)
		}
		repeated := false
		if n, rep := cycles.record(merged.stateHash(), iter); rep {
			res.Converged = true
			res.CycleLength = n
			repeated = true
		}
		if ckr != nil && ckr.due(iter, repeated, opts.MaxIterations) {
			if err := ckr.save(merged, res, cycles, traceRows, nil); err != nil {
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
	nr, ni := seed.counts()
	rec.Gauge("delta.dirty_routers").Set(int64(nr))
	rec.Gauge("delta.dirty_ifaces").Set(int64(ni))
	rec.Gauge("refine.iterations").Set(int64(res.Iterations))
	rec.Gauge("refine.cycle_length").Set(int64(res.CycleLength))
	rec.Gauge("refine.converged").Set(b2i(res.Converged))
	ph.Note("iterations", int64(res.Iterations))
	ph.End()
	if res.Interrupted {
		rec.MarkInterrupted()
		rec.Warnf("delta run cancelled after iteration %d of at most %d; annotations are the last committed iteration's partial result",
			res.Iterations, opts.MaxIterations)
	}
	res.Report = rec.Report()
	res.Report.Interrupted = res.Interrupted
	return res, nil
}

// foldReplayed merges replayed flips (already in ascending merged
// index order: the base-to-merged mappings are monotone on the clean
// subset) into the per-shard recomputed change sets, keeping each
// shard's set index-sorted so the concatenated history stays ordered.
func foldReplayed(hist [][]ckpt.AnnChange, replayed []ckpt.AnnChange, n, workers int) {
	if len(replayed) == 0 {
		return
	}
	bounds := shard.Bounds(n, workers)
	j := 0
	for s := range bounds {
		hi := bounds[s][1]
		start := j
		for j < len(replayed) && int(replayed[j].Idx) < hi {
			j++
		}
		if j == start {
			continue
		}
		hist[s] = append(hist[s], replayed[start:j]...)
		cs := hist[s]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Idx < cs[b].Idx })
	}
}
