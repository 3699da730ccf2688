package core

import (
	"context"
	"encoding/binary"
	"net/netip"
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
// The engine therefore seeds a dirty set from the structural diff (new
// or changed routers and interfaces), grows it one influence hop per
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

// deltaSeed is the structural diff between the base and merged graphs,
// plus the index mappings replay needs.
type deltaSeed struct {
	// rdirty/idirty mark merged routers (by ID) and interfaces (by
	// sorted-address position) that must be recomputed rather than
	// replayed. Seeded structurally, grown one hop per iteration.
	rdirty, idirty []bool
	// frontier holds the interface positions newly dirtied by the most
	// recent expansion; the next expansion dirties their voters.
	frontier []int
	// baseToMergedR maps a base router ID to the merged router ID
	// holding the same interfaces; baseToMergedI maps base
	// sorted-address positions to merged ones. Both are monotone on the
	// clean subset: identity crosses the graphs by representative
	// (smallest) interface address, and both graphs sort by it.
	baseToMergedR []int
	baseToMergedI []int
	// mergedIdx maps an interface address to its merged sorted
	// position.
	mergedIdx map[netip.Addr]int
	// structRouters/structIfaces count the structurally dirty seeds,
	// for observability.
	structRouters, structIfaces int
}

const fnvOffset = 14695981039346656037
const fnvPrime = 1099511628211

// hashU64 folds v into the running FNV-64a hash at h.
func hashU64(h *uint64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	for _, x := range b {
		*h = (*h ^ uint64(x)) * fnvPrime
	}
}

func hashAddr(h *uint64, a netip.Addr) {
	b := a.As16()
	for _, x := range b {
		*h = (*h ^ uint64(x)) * fnvPrime
	}
}

func hashSet(h *uint64, s asn.Set) {
	sorted := s.Sorted()
	hashU64(h, uint64(len(sorted)))
	for _, a := range sorted {
		hashU64(h, uint64(a))
	}
}

// ifaceStructDigest fingerprints every structural input the annotation
// passes read through an interface: identity, origin, resolution kind,
// echo-only status, destination ASes, the owning router's identity
// (its representative address), and each incoming link's source
// router, label, and vote weight. Over-approximation is safe — a
// digest that flags too much only shrinks the replayed region — so the
// digest errs broad.
func ifaceStructDigest(i *Interface) uint64 {
	h := uint64(fnvOffset)
	hashAddr(&h, i.Addr)
	hashU64(&h, uint64(i.Origin))
	hashU64(&h, uint64(i.Kind))
	if i.EchoOnly {
		hashU64(&h, 1)
	} else {
		hashU64(&h, 0)
	}
	hashSet(&h, i.DestASes)
	hashAddr(&h, i.Router.Interfaces[0].Addr)
	links := append([]*Link(nil), i.InLinks...)
	sort.Slice(links, func(a, b int) bool {
		return links[a].From.Interfaces[0].Addr.Less(links[b].From.Interfaces[0].Addr)
	})
	hashU64(&h, uint64(len(links)))
	for _, l := range links {
		hashAddr(&h, l.From.Interfaces[0].Addr)
		hashU64(&h, uint64(l.Label))
		hashU64(&h, uint64(len(l.Prev)))
	}
	return h
}

// routerStructDigest fingerprints every structural input of the router
// vote: last-hop status, origin and destination AS sets, the member
// interfaces, and every outgoing link with its label, previous-hop
// origins, and destination ASes.
func routerStructDigest(r *Router) uint64 {
	h := uint64(fnvOffset)
	if r.LastHop {
		hashU64(&h, 1)
	} else {
		hashU64(&h, 0)
	}
	hashSet(&h, r.OriginSet)
	hashSet(&h, r.DestASes)
	hashU64(&h, uint64(len(r.Interfaces)))
	for _, i := range r.Interfaces {
		hashAddr(&h, i.Addr)
		hashU64(&h, uint64(i.Origin))
		hashU64(&h, uint64(i.Kind))
		if i.EchoOnly {
			hashU64(&h, 1)
		} else {
			hashU64(&h, 0)
		}
	}
	addrs := make([]netip.Addr, 0, len(r.Links))
	for a := range r.Links {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].Less(addrs[j]) })
	hashU64(&h, uint64(len(addrs)))
	for _, a := range addrs {
		l := r.Links[a]
		hashAddr(&h, a)
		hashU64(&h, uint64(l.Label))
		prevAddrs := make([]netip.Addr, 0, len(l.Prev))
		for pa := range l.Prev {
			prevAddrs = append(prevAddrs, pa)
		}
		sort.Slice(prevAddrs, func(i, j int) bool { return prevAddrs[i].Less(prevAddrs[j]) })
		hashU64(&h, uint64(len(prevAddrs)))
		for _, pa := range prevAddrs {
			hashAddr(&h, pa)
			hashU64(&h, uint64(l.Prev[pa]))
		}
		hashSet(&h, l.DestASes)
	}
	return h
}

// structDigests returns the graph's structural digests: routers by
// router ID, interfaces by sortedAddrs position. Structure is immutable
// once Finish returns (annotations are not part of it), so the vectors
// are computed on first use and kept: the merged graph of one absorb is
// the base graph of the next, and must not be digested twice. Not safe
// for concurrent first use; the delta engine calls it from its
// orchestrating goroutine only.
func (g *Graph) structDigests() (routers, ifaces []uint64) {
	if g.routerDigests == nil {
		g.routerDigests = make([]uint64, len(g.Routers))
		for id, r := range g.Routers {
			g.routerDigests[id] = routerStructDigest(r)
		}
		g.ifaceDigests = make([]uint64, len(g.sortedAddrs))
		for idx, a := range g.sortedAddrs {
			g.ifaceDigests[idx] = ifaceStructDigest(g.Interfaces[a])
		}
	}
	return g.routerDigests, g.ifaceDigests
}

// computeDeltaSeed diffs merged against base structurally. Identity
// crosses the graphs by representative address (each router's smallest
// interface address): alias sets are an input, not an inference, so a
// base router's interfaces always land in one merged router, and a
// merged router whose structure matches its base counterpart
// byte-for-byte starts clean.
func computeDeltaSeed(merged, base *Graph) *deltaSeed {
	s := &deltaSeed{
		rdirty:        make([]bool, len(merged.Routers)),
		idirty:        make([]bool, len(merged.sortedAddrs)),
		baseToMergedR: make([]int, len(base.Routers)),
		baseToMergedI: make([]int, len(base.sortedAddrs)),
		mergedIdx:     make(map[netip.Addr]int, len(merged.sortedAddrs)),
	}
	for idx, a := range merged.sortedAddrs {
		s.mergedIdx[a] = idx
	}
	baseRDig, baseIDig := base.structDigests()
	mergedRDig, mergedIDig := merged.structDigests()

	for bi, br := range base.Routers {
		s.baseToMergedR[bi] = merged.Interfaces[br.Interfaces[0].Addr].Router.ID
	}
	// mergedToBaseI inverts baseToMergedI; -1 marks an interface the
	// base graph does not have.
	mergedToBaseI := make([]int, len(merged.sortedAddrs))
	for idx := range mergedToBaseI {
		mergedToBaseI[idx] = -1
	}
	for bi, a := range base.sortedAddrs {
		idx := s.mergedIdx[a]
		s.baseToMergedI[bi] = idx
		mergedToBaseI[idx] = bi
	}

	var dirtyRouters []int
	for id, r := range merged.Routers {
		// The base counterpart is the base router with the same
		// representative address, if there is one.
		bi, ok := base.Interfaces[r.Interfaces[0].Addr]
		if !ok || bi.Router.Interfaces[0] != bi || baseRDig[bi.Router.ID] != mergedRDig[id] {
			s.rdirty[id] = true
			s.structRouters++
			dirtyRouters = append(dirtyRouters, id)
		}
	}
	for idx, bi := range mergedToBaseI {
		if bi < 0 || baseIDig[bi] != mergedIDig[idx] {
			s.idirty[idx] = true
			s.structIfaces++
			s.frontier = append(s.frontier, idx)
		}
	}
	// Iteration 0 is purely structural (interface origins plus last-hop
	// annotation), so the initial frontier is the structural interface
	// seed plus the influence surface of the structurally dirty
	// routers: member interfaces and link targets read router values
	// from iteration 0 onward.
	s.expandRouters(merged, dirtyRouters)
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
			if idx := s.mergedIdx[i.Addr]; !s.idirty[idx] {
				s.idirty[idx] = true
				s.frontier = append(s.frontier, idx)
			}
		}
		//lint:ignore maporder sets membership bits and appends to an unordered work-list; the resulting dirty sets are iteration-order independent
		for _, l := range r.Links {
			if idx := s.mergedIdx[l.To.Addr]; !s.idirty[idx] {
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
		j := g.Interfaces[g.sortedAddrs[jIdx]]
		for _, l := range j.InLinks {
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

// RunDeltaContext anneals the merged graph — the base corpus plus one
// or more new batches — into its converged annotation state by
// replaying the base run's recorded trajectory over structurally clean
// entities and recomputing only the dirty frontier. The committed
// state after every iteration is byte-identical to the state a
// from-scratch RunContext over the merged corpus commits at that
// iteration, at every worker count; the run therefore converges on the
// same iteration with the same final annotations.
//
// base is the graph rebuilt from exactly the inputs baseState was
// taken over (fingerprint-checked); baseState must be a complete
// version-3 snapshot (RequireHistory). Provenance collection is
// refused — replayed iterations carry no vote trace to record — as is
// resuming: a delta run is always computed whole from the replayed
// trajectory.
func RunDeltaContext(ctx context.Context, merged, base *Graph, baseState *ckpt.State, rels RelationshipOracle, opts Options) (*Result, error) {
	opts.setDefaults()
	rec := opts.Recorder
	if opts.Provenance {
		return nil, &DeltaBaseError{Reason: "provenance collection is not supported (replayed iterations carry no vote trace); run the full pipeline with provenance instead"}
	}
	if opts.Checkpoint != nil && opts.Checkpoint.Resume {
		return nil, &DeltaBaseError{Reason: "resume is not supported; a delta run recomputes from the base trajectory (rerun without resume)"}
	}
	if err := baseState.RequireHistory(); err != nil {
		return nil, err
	}
	if fp := (&opts).fingerprint(); fp != baseState.OptionsFP {
		return nil, &ckpt.MismatchError{Field: "options", Want: baseState.OptionsFP, Got: fp}
	}
	if gd := graphDigest(base); gd != baseState.GraphDigest {
		return nil, &ckpt.MismatchError{Field: "graph", Want: baseState.GraphDigest, Got: gd}
	}
	if len(baseState.Routers) != len(base.Routers) {
		return nil, &ckpt.MismatchError{Field: "routers", Want: uint64(len(baseState.Routers)), Got: uint64(len(base.Routers))}
	}
	if len(baseState.Ifaces) != len(base.sortedAddrs) {
		return nil, &ckpt.MismatchError{Field: "interfaces", Want: uint64(len(baseState.Ifaces)), Got: uint64(len(base.sortedAddrs))}
	}

	if ctx.Err() != nil {
		res := &Result{Graph: merged, Interrupted: true}
		rec.MarkInterrupted()
		res.Report = rec.Report()
		res.Report.Interrupted = true
		return res, nil
	}

	lh := rec.Phase("lasthop")
	annotateLastHops(merged, rels, opts, nil)
	lh.Note("lasthop_irs", int64(merged.Stats.LastHopIRs))
	lh.End()

	sd := rec.Phase("delta-seed")
	seed := computeDeltaSeed(merged, base)
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
	ifaceScratch := make([]*voteScratch, len(shard.Bounds(len(merged.sortedAddrs), opts.Workers)))
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
		if !shard.ForShardsTimedCtx(ctx, len(merged.sortedAddrs), opts.Workers, func(s, lo, hi int) {
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
				i := merged.Interfaces[merged.sortedAddrs[idx]]
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
			i := merged.Interfaces[merged.sortedAddrs[idx]]
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
			foldReplayed(histI, replayedI, len(merged.sortedAddrs), opts.Workers)
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
