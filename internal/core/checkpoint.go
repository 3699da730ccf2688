package core

import (
	"encoding/binary"
	"fmt"

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
// A full run or a resume writes the base snapshot twice, the refinement
// log between. A delta run writes its final state once and nothing
// before: the batch and the base it absorbs into are durable already,
// so a kill before that snapshot is recovered by redoing the batch.
type ckptRunner struct {
	cfg *ckpt.Config
	rec *obs.Recorder
	// st is the run's committed state. Each iteration's record is folded
	// into it with the Fold that ckpt.Load applies to the log, so the
	// final snapshot encodes exactly what a resume from base + log
	// replays, and nothing re-reads the graph to write it.
	st  *ckpt.State
	log *ckpt.IterLog
	// once marks a delta run: its final snapshot is its one write.
	once bool
}

// newCkptRunner gives a run its committed state under its lineage:
// resumed, or the iteration-0 state last-hop annotation left on g, which
// is the base at once unless once is set. It returns the runner even
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
	if c.st.Iteration > 0 || once {
		return c, nil
	}
	return c, c.rebase()
}

func (c *ckptRunner) close() {
	if c.log != nil {
		_ = c.log.Close()
	}
}

// rebase publishes the committed state as the base and starts the log
// afresh behind it. A kill between the two is harmless: Fold leaves out
// records of another run or behind the base, and is right to apply
// those of this run's twin (same options, inputs and graph: same
// iterations).
func (c *ckptRunner) rebase() error {
	err := ckpt.Save(c.cfg.Dir, c.st, c.rec)
	if err == nil {
		c.log, err = ckpt.OpenIterLog(c.cfg.Dir)
	}
	return err
}

// commit records the iteration res.Iterations just committed — its
// change set and trace row — and makes it durable: the last iteration
// (convergence or the cap) as a snapshot, so a finished run's base says
// so and needs no log; any other as one log append, or not at all in a
// delta run, whose snapshot replaces the log. A resumed state's
// iterations are durable; a run going on past them rebases.
func (c *ckptRunner) commit(res *Result, row obs.Row, delta ckpt.IterDelta, last bool) error {
	if res.Iterations <= c.st.Iteration {
		if res.Iterations < c.st.Iteration || last {
			return nil
		}
		return c.rebase()
	}
	it := ckpt.IterRecord{
		RunID: c.st.RunID(), Iteration: res.Iterations,
		Converged: res.Converged, CycleLength: res.CycleLength,
		Row: row, Delta: delta,
	}
	if ok, err := c.st.Fold(&it); err != nil || !ok {
		return fmt.Errorf("core: iteration %d does not follow the committed state at iteration %d (%v)", it.Iteration, c.st.Iteration, err)
	}
	switch {
	case !last && c.once:
		return nil
	case !last:
		return c.log.Append([]ckpt.IterRecord{it}, c.rec)
	case c.once:
		if err := ckpt.RemoveLog(c.cfg.Dir); err != nil {
			return err
		}
	}
	return ckpt.Save(c.cfg.Dir, c.st, c.rec)
}
