package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/asn"
	"repro/internal/ckpt"
	"repro/internal/obs"
)

// Delta refinement absorbs a new trace batch without re-evaluating the
// whole graph at every iteration. The insight is that both annotation
// passes read only local, structurally determined inputs: a router's
// vote (§6, Alg. 2) reads its own structure plus the previous-iteration
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
// A delta run is therefore the refinement loop (refine.go) with a
// replay source. The source seeds a dirty set from what the batch
// touched (new or changed routers and interfaces, marked by the Builder
// as it appended the batch), grows it one influence hop per iteration
// (dirtiness propagates along links exactly as fast as annotations do),
// and hands the loop the base run's change set for everything still
// clean. Past the base run's recorded horizon the replay uses the
// detected cycle: a converged base state is periodic (state(N) ==
// state(N-c) and the update is deterministic), so change sets repeat
// with period c. A base that never converged offers nothing to replay
// past its horizon, and everything turns dirty there. The equivalence
// with a from-scratch run over the merged corpus is per-iteration and
// byte-exact, which is what the ingest pipeline's -verify-delta oracle
// checks end to end. A resume is the same replay with nothing appended.

// replay is the refinement loop's replay source: what a delta run or a
// resume (no app) knows that a full run does not. A nil *replay is a
// full run — everything dirty from the start, nothing to replay — and
// every method the loop calls answers for nil, so the loop never asks
// which it has. "Merged" names the graph after the append — base corpus
// plus batch — and "base" the same graph before it, which is what the
// base checkpoint's indices refer to; app.routerPos and app.ifacePos
// carry one onto the other, and are monotone on the clean subset:
// appending inserts into the sorted orders and moves only routers whose
// representative changed, which are dirty.
type replay struct {
	app  *Append
	base *ckpt.State
	// dirty says the append touched something; rpos/ipos are app's
	// position maps (nil: resume).
	dirty      bool
	rpos, ipos []int
	// rsince/isince hold, per merged router (by ID) and interface (by
	// sorted position), the iteration from which it is evaluated rather
	// than replayed; 0 while it is clean. Seeded structurally at 1,
	// grown one hop per iteration.
	rsince, isince []int32
	// frontier holds the interface positions newly dirtied by the most
	// recent expansion; the next expansion dirties their voters.
	frontier []int
	// routers/ifaces are the current iteration's base change set in
	// merged indices, flips aimed at dirty entities dropped — ascending,
	// by the monotonicity above.
	routers, ifaces []ckpt.AnnChange
}

// seed readies the replay after last-hop annotation. A resume has
// nothing dirty and returns the state it carries on.
//
// A delta run's dirty set starts as the record of the Finish that
// appended the batch. The Builder marked a router or interface at every
// statement that changed structure an annotation pass reads through it,
// so the touched set is the seed. Identity crosses an append by object:
// alias sets are an input, not an inference, so a router keeps its
// interfaces, and one whose representative address changed was touched.
func (p *replay) seed(g *Graph, rec *obs.Recorder, res *Result) (*ckpt.State, error) {
	if p == nil {
		return nil, nil
	}
	p.rsince = make([]int32, len(g.Routers))
	p.isince = make([]int32, len(g.Interfaces))
	if st := p.base; p.app == nil {
		res.Resumed, res.ResumedFrom = true, st.Iteration
		rec.SetResumedFrom(st.Iteration)
		rec.Logf("refine: resumed from checkpoint at iteration %d (%d of them from %s)", st.Iteration, st.FromLog, ckpt.LogName)
		return st, p.reached(g, 0)
	}
	sd := rec.Phase("delta-seed")
	p.rpos, p.ipos = p.app.routerPos, p.app.ifacePos
	p.dirty = len(p.app.routers) > 0 || len(p.app.ifaces) > 0
	p.frontier = slices.Clone(p.app.ifaces)
	for _, id := range p.app.routers {
		p.rsince[id] = 1
	}
	for _, idx := range p.app.ifaces {
		p.isince[idx] = 1
	}
	// Iteration 0 is purely structural (interface origins plus last-hop
	// annotation), so the initial frontier is the structural interface
	// seed plus the influence surface of the structurally dirty
	// routers: member interfaces and link targets read router values
	// from iteration 0 onward.
	p.expandRouters(g, p.app.routers, 1)
	sd.Note("struct_dirty_routers", int64(len(p.app.routers)))
	sd.Note("struct_dirty_ifaces", int64(len(p.app.ifaces)))
	sd.End()
	rec.Gauge("delta.struct_dirty_routers").Set(int64(len(p.app.routers)))
	rec.Gauge("delta.struct_dirty_ifaces").Set(int64(len(p.app.ifaces)))
	return nil, p.reached(g, 0)
}

// appended reports a delta run: one with a batch appended, not a resume.
func (p *replay) appended() bool { return p != nil && p.app != nil }

// at carries base index i onto the graph through pos (none: a resume).
func at(pos []int, i uint32) int {
	if pos == nil {
		return int(i)
	}
	return pos[i]
}

// expandRouters marks, as dirty from iteration iter, the interfaces
// whose next committed value depends on a router in newRD: the routers'
// member interfaces (an interface election reads its owning router's
// annotation) and their link targets (a link target's election counts a
// vote from the router behind the link).
func (p *replay) expandRouters(g *Graph, newRD []int, iter int32) {
	for _, id := range newRD {
		r := g.Routers[id]
		for _, i := range r.Interfaces {
			if idx := int(i.pos); p.isince[idx] == 0 {
				p.isince[idx] = iter
				p.frontier = append(p.frontier, idx)
			}
		}
		for _, l := range r.Links {
			if idx := int(l.To.pos); p.isince[idx] == 0 {
				p.isince[idx] = iter
				p.frontier = append(p.frontier, idx)
			}
		}
	}
}

// advance readies iteration iter: it picks the base change set that
// iteration replays and moves the dirty wavefront one hop — every router
// voting on a frontier interface becomes dirty (its next vote reads a
// value the base run did not commit), and the newly dirty routers'
// influence surface becomes the next frontier. Routers reading a dirty
// interface's *owner* are covered transitively: the owner's divergence
// surfaces through its member interfaces, which are already in the
// frontier.
func (p *replay) advance(g *Graph, iter int) {
	if p == nil {
		return
	}
	p.routers, p.ifaces = p.routers[:0], p.ifaces[:0]
	m, n, c := iter, p.base.Iteration, p.base.CycleLength
	if iter > n {
		if !p.base.Converged {
			// An unconverged base has no trajectory past its horizon:
			// whatever is still clean is evaluated from here on.
			for id, since := range p.rsince {
				if since == 0 {
					p.rsince[id] = int32(iter)
				}
			}
			for idx, since := range p.isince {
				if since == 0 {
					p.isince[idx] = int32(iter)
				}
			}
			p.frontier = nil
			return
		}
		// Past the horizon a converged base is periodic: state(N) ==
		// state(N-c) and the update is deterministic, so change sets
		// repeat with period c. (c == 1 indexes the final, empty set.)
		m = n - c + 1 + (iter-n-1)%c
	}
	frontier := p.frontier
	p.frontier = nil
	var newRD []int
	for _, jIdx := range frontier {
		for _, l := range g.Interfaces[jIdx].InLinks {
			if id := l.From.ID; p.rsince[id] == 0 {
				p.rsince[id] = int32(iter)
				newRD = append(newRD, id)
			}
		}
	}
	p.expandRouters(g, newRD, int32(iter))

	for _, f := range p.base.History[m-1].Routers {
		if id := at(p.rpos, f.Idx); p.rsince[id] == 0 {
			p.routers = append(p.routers, ckpt.AnnChange{Idx: uint32(id), Ann: f.Ann})
		}
	}
	for _, f := range p.base.History[m-1].Ifaces {
		if idx := at(p.ipos, f.Idx); p.isince[idx] == 0 {
			p.ifaces = append(p.ifaces, ckpt.AnnChange{Idx: uint32(idx), Ann: f.Ann})
		}
	}
}

// row is the base's trace row for iteration iter when nothing is dirty
// (the iteration is the base's own), nil when the loop tallies its own:
// after a touching append, or past the base's horizon.
func (p *replay) row(iter int) obs.Row {
	if p == nil || p.dirty || iter > len(p.base.Trace) {
		return nil
	}
	return p.base.Trace[iter-1]
}

// reached is told iteration iter committed (0: last-hop annotation). At
// the base's horizon every clean entity must hold its stored value; a
// History replaying to anything else is a *ckpt.FormatError naming it.
func (p *replay) reached(g *Graph, iter int) error {
	if p == nil || iter != p.base.Iteration {
		return nil
	}
	for b, ann := range p.base.Routers {
		if id := at(p.rpos, uint32(b)); p.rsince[id] == 0 && uint32(g.Routers[id].Annotation) != ann {
			return &ckpt.FormatError{Reason: fmt.Sprintf("history replays router %d to %d by iteration %d, but the state holds %d", b, g.Routers[id].Annotation, iter, ann)}
		}
	}
	for b, ann := range p.base.Ifaces {
		if idx := at(p.ipos, uint32(b)); p.isince[idx] == 0 && uint32(g.Interfaces[idx].Annotation) != ann {
			return &ckpt.FormatError{Reason: fmt.Sprintf("history replays interface %d to %d by iteration %d, but the state holds %d", b, g.Interfaces[idx].Annotation, iter, ann)}
		}
	}
	return nil
}

// routerSince is the iteration from which the loop evaluates router idx
// rather than replaying it, 0 while it is still clean.
//
//lint:hotpath
func (p *replay) routerSince(idx int) int32 {
	if p == nil {
		return 1
	}
	return p.rsince[idx]
}

// ifaceSince is routerSince for the interface at sorted position idx.
//
//lint:hotpath
func (p *replay) ifaceSince(idx int) int32 {
	if p == nil {
		return 1
	}
	return p.isince[idx]
}

// routerFlips is what this iteration replays onto routers lo and up: a
// shard's cursor as it walks its range.
//
//lint:hotpath
func (p *replay) routerFlips(lo int) flips {
	if p == nil {
		return nil
	}
	return flipsFrom(p.routers, lo)
}

// ifaceFlips is routerFlips for interfaces.
//
//lint:hotpath
func (p *replay) ifaceFlips(lo int) flips {
	if p == nil {
		return nil
	}
	return flipsFrom(p.ifaces, lo)
}

// gauges reports how far a delta run's dirty set spread.
func (p *replay) gauges(rec *obs.Recorder) {
	if !p.appended() {
		return
	}
	count := func(since []int32) (n int64) {
		for _, s := range since {
			if s != 0 {
				n++
			}
		}
		return n
	}
	rec.Gauge("delta.dirty_routers").Set(count(p.rsince))
	rec.Gauge("delta.dirty_ifaces").Set(count(p.isince))
}

// flips is a run of replayed changes, ascending by index, that a pass
// consumes from the front as it reaches each index.
type flips []ckpt.AnnChange

//lint:hotpath
func flipsFrom(all []ckpt.AnnChange, lo int) flips {
	k, _ := slices.BinarySearchFunc(all, uint32(lo), func(f ckpt.AnnChange, lo uint32) int { return cmp.Compare(f.Idx, lo) })
	return all[k:]
}

// take returns the annotation replayed onto entity idx, if there is one.
//
//lint:hotpath
func (f *flips) take(idx int) (asn.ASN, bool) {
	if len(*f) == 0 || int((*f)[0].Idx) != idx {
		return 0, false
	}
	a := asn.ASN((*f)[0].Ann)
	*f = (*f)[1:]
	return a, true
}

// DeltaBaseError reports a base checkpoint or configuration delta
// refinement cannot work from; the message says what to do instead.
type DeltaBaseError struct{ Reason string }

func (e *DeltaBaseError) Error() string { return "core: delta refinement: " + e.Reason }

// RunDeltaContext anneals the merged graph — the base corpus plus the
// batch its Builder just appended — into its converged annotation state:
// RunContext's loop, replaying the base run's recorded trajectory over
// structurally clean entities and evaluating only the dirty frontier,
// with the same cancellation contract and telemetry. The committed
// state after every iteration is byte-identical to the state a
// from-scratch RunContext over the merged corpus commits at that
// iteration, at every worker count; the run therefore converges on the
// same iteration with the same final annotations.
//
// app is the Builder's record of the Finish that appended the batch
// (Builder.LastAppend), and baseState a state of a run over the graph as
// it was before that Finish, checked as ResumeContext checks its state
// but against the digest the graph carried then and not the inputs. With
// opts.Provenance the artifact is a from-scratch run's over the merged
// corpus too.
func RunDeltaContext(ctx context.Context, merged *Graph, app *Append, baseState *ckpt.State, rels RelationshipOracle, opts Options) (*Result, error) {
	if app == nil || app.graph != merged || app.finish != merged.finishes {
		return nil, &DeltaBaseError{Reason: "the append record does not describe the graph's most recent Finish"}
	}
	return (&replay{app: app, base: baseState}).run(ctx, merged, rels, opts)
}

// ResumeContext carries on the run st is a state of (ckpt.Load returns
// the newest durable one) over g, that run's graph rebuilt from the same
// inputs: RunDeltaContext with nothing appended, so the result is the
// uninterrupted run's at every worker count, or a fresh capped run's when
// MaxIterations comes first — provenance included. An st without its
// whole History is a *ckpt.HistoryError; one of other options, graph or
// inputs (with opts.Checkpoint set), a *ckpt.MismatchError. With
// opts.Checkpoint set, st becomes the run's committed state.
func ResumeContext(ctx context.Context, g *Graph, st *ckpt.State, rels RelationshipOracle, opts Options) (*Result, error) {
	return (&replay{base: st}).run(ctx, g, rels, opts)
}

// run refines g from no annotations, replaying p.base, once the base
// passes the one check both entry points share: a complete History inside
// the state, and nothing that leads where no uninterrupted run goes —
// other options, graph (for a delta run, the one before its append) or,
// for a resume, inputs.
func (p *replay) run(ctx context.Context, g *Graph, rels RelationshipOracle, opts Options) (*Result, error) {
	opts.setDefaults()
	st := p.base
	if err := st.RequireHistory(); err != nil {
		return nil, err
	}
	for k, d := range st.History {
		if outside(d.Routers, len(st.Routers)) || outside(d.Ifaces, len(st.Ifaces)) {
			return nil, &ckpt.FormatError{Reason: fmt.Sprintf("history of iteration %d indexes past the state", k+1)}
		}
	}
	digest, routers, ifaces, inputs := g.digest, len(g.Routers), len(g.Interfaces), st.InputDigest
	if p.app != nil {
		digest, routers, ifaces = p.app.baseDigest, len(p.app.routerPos), len(p.app.ifacePos)
	} else if opts.Checkpoint != nil {
		inputs = opts.Checkpoint.InputDigest
	}
	switch fp := opts.fingerprint(); {
	case fp != st.OptionsFP:
		return nil, &ckpt.MismatchError{Field: "options", Want: st.OptionsFP, Got: fp}
	case inputs != st.InputDigest:
		return nil, &ckpt.MismatchError{Field: "inputs", Want: st.InputDigest, Got: inputs}
	case digest != st.GraphDigest:
		return nil, &ckpt.MismatchError{Field: "graph", Want: st.GraphDigest, Got: digest}
	case routers != len(st.Routers):
		return nil, &ckpt.MismatchError{Field: "routers", Want: uint64(len(st.Routers)), Got: uint64(routers)}
	case ifaces != len(st.Ifaces):
		return nil, &ckpt.MismatchError{Field: "interfaces", Want: uint64(len(st.Ifaces)), Got: uint64(ifaces)}
	}
	g.ResetAnnotations()
	return refine(ctx, g, rels, opts, p)
}

// outside reports whether a change in cs indexes past n entities.
func outside(cs []ckpt.AnnChange, n int) bool {
	return slices.ContainsFunc(cs, func(c ckpt.AnnChange) bool { return int(c.Idx) >= n })
}
