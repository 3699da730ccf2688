package core

import (
	"encoding/binary"

	"repro/internal/ckpt"
	"repro/internal/obs"
)

// fingerprint hashes the options that change what an iteration computes:
// the heuristic ablation switches. Workers is excluded because the
// sharding contract makes results identical at every worker count — a
// checkpoint taken at -workers 8 must resume cleanly at -workers 1.
// MaxIterations is excluded because it is a stopping rule, not a state
// input: resuming a capped run under a larger cap is exactly how an
// interrupted run gets extended to convergence.
func (o *Options) fingerprint() uint64 {
	h := ckpt.NewFingerprinter()
	for _, b := range []bool{
		o.DisableLastHopDest,
		o.DisableThirdParty,
		o.DisableRealloc,
		o.DisableExceptions,
		o.DisableHiddenAS,
		o.DisableDestTieBreak,
	} {
		h.Write(ckpt.AppendBool(nil, b))
	}
	return h.Sum64()
}

// graphDigest fingerprints the graph shape a checkpoint's annotation
// slices index into: the sorted interface addresses and their partition
// into routers. Two graphs with the same digest assign the same meaning
// to "router i" and "interface j", which is what makes replaying a
// state's change sets safe; anything that changes alias resolution or
// the observed address set changes the digest and is refused on resume.
// Finish computes it once and keeps it on the graph (Graph.digest).
func graphDigest(g *Graph) uint64 {
	h := ckpt.NewFingerprinter()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	u64(uint64(len(g.Routers)))
	u64(uint64(len(g.Interfaces)))
	for _, i := range g.Interfaces {
		b := i.Addr.As16()
		h.Write(b[:])
	}
	for _, r := range g.Routers {
		u64(uint64(len(r.Interfaces)))
		for _, i := range r.Interfaces {
			b := i.Addr.As16()
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// ckptRunner owns the durable record of a run's committed iterations.
// A full run writes its iteration-0 state and its final one (converged,
// capped or cancelled), and nothing between: refinement is a small share
// of a run, so a run killed inside it resumes from iteration 0. A resume
// from a later state writes only its final state, the state it resumed
// being durable already. A delta run writes only its final state too,
// and nothing when cancelled: the batch and the base it absorbs into are
// durable, so its restart redoes the batch.
type ckptRunner struct {
	cfg *ckpt.Config
	rec *obs.Recorder
	// st is the run's committed state, each iteration's change set and
	// trace row applied to it as the iteration commits, so nothing
	// re-reads the graph to write the final snapshot.
	st *ckpt.State
	// start is the iteration the run started from, which the directory
	// holds unless once is set.
	start int
	// once marks a delta run.
	once bool
}

// newCkptRunner gives a run its committed state under its lineage:
// resumed, or the iteration-0 state last-hop annotation left on g, which
// it publishes at once unless once is set. It returns the runner even
// with an error.
func newCkptRunner(cfg *ckpt.Config, opts *Options, g *Graph, resumed *ckpt.State, once bool) (*ckptRunner, error) {
	c := &ckptRunner{cfg: cfg, rec: opts.Recorder, st: resumed, once: once}
	if c.st == nil {
		c.st = &ckpt.State{
			OptionsFP:   opts.fingerprint(),
			InputDigest: cfg.InputDigest,
			GraphDigest: g.digest,
			Routers:     make([]uint32, len(g.Routers)),
			Ifaces:      make([]uint32, len(g.Interfaces)),
		}
		for i, r := range g.Routers {
			c.st.Routers[i] = uint32(r.Annotation)
		}
		for pos, i := range g.Interfaces {
			c.st.Ifaces[pos] = uint32(i.Annotation)
		}
	}
	c.st.Lineage = cfg.Lineage
	c.start = c.st.Iteration
	if c.st.Iteration > 0 || once {
		return c, nil
	}
	return c, ckpt.Save(cfg.Dir, c.st, c.rec)
}

// commit applies the iteration res.Iterations just committed — its
// change set and trace row — to the committed state, and publishes that
// state when the iteration is the last (convergence or the cap). An
// iteration a resume replays is in the state already.
func (c *ckptRunner) commit(res *Result, row obs.Row, delta ckpt.IterDelta, last bool) error {
	st := c.st
	if res.Iterations <= st.Iteration {
		return nil
	}
	for _, ch := range delta.Routers {
		st.Routers[ch.Idx] = ch.Ann
	}
	for _, ch := range delta.Ifaces {
		st.Ifaces[ch.Idx] = ch.Ann
	}
	st.Iteration = res.Iterations
	st.Converged, st.CycleLength = res.Converged, res.CycleLength
	st.Trace = append(st.Trace, row)
	st.History = append(st.History, delta)
	if !last {
		return nil
	}
	return ckpt.Save(c.cfg.Dir, st, c.rec)
}

// interrupted publishes the state a cancelled full run or resume
// committed last, when that is past the one it started from.
func (c *ckptRunner) interrupted() error {
	if c.once || c.st.Iteration == c.start {
		return nil
	}
	return ckpt.Save(c.cfg.Dir, c.st, c.rec)
}
