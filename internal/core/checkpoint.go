package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/asn"
	"repro/internal/ckpt"
	"repro/internal/obs"
	"repro/internal/prov"
)

// fingerprint hashes the options that change what an iteration computes:
// the heuristic ablation switches. Workers is excluded because the
// sharding contract makes results identical at every worker count — a
// checkpoint taken at -workers 8 must resume cleanly at -workers 1.
// MaxIterations is excluded because it is a stopping rule, not a state
// input: resuming a capped run under a larger cap is exactly how an
// interrupted run gets extended to convergence.
func (o *Options) fingerprint() uint64 {
	h := fnv.New64a()
	for _, b := range []bool{
		o.DisableLastHopDest,
		o.DisableThirdParty,
		o.DisableRealloc,
		o.DisableExceptions,
		o.DisableHiddenAS,
		o.DisableDestTieBreak,
	} {
		if b {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return h.Sum64()
}

// graphDigest fingerprints the graph shape a checkpoint's annotation
// slices index into: the sorted interface addresses and their partition
// into routers. Two graphs with the same digest assign the same meaning
// to "router i" and "interface j", which is what makes restoring flat
// annotation arrays safe; anything that changes alias resolution or the
// observed address set changes the digest and is refused on resume.
// Finish computes it once and keeps it on the graph (Graph.digest).
func graphDigest(g *Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	u64(uint64(len(g.Routers)))
	u64(uint64(len(g.sortedIfaces)))
	for _, addr := range g.sortedAddrs {
		b := addr.As16()
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

// ckptRunner owns a run's checkpoint lifecycle: the fingerprints
// computed once up front, the compatibility checks on resume, and the
// durable record of each committed iteration — the base snapshot twice
// per run, the refinement log between.
type ckptRunner struct {
	cfg   *ckpt.Config
	optFP uint64
	gDig  uint64
	rec   *obs.Recorder
	prov  bool
	// st is the run's committed state. Each iteration's record is folded
	// into it with the Fold that ckpt.Load applies to the log, so the
	// final snapshot encodes exactly what a resume from base + log
	// restores, and nothing re-reads the graph to write it. Its History
	// is the trajectory delta ingest replays; a resume from a pre-history
	// (v2) snapshot leaves it short, which RequireHistory detects.
	st *ckpt.State
	// pending holds the committed iterations log does not hold yet.
	log     *ckpt.IterLog
	pending []ckpt.IterRecord
}

func newCkptRunner(cfg *ckpt.Config, opts *Options, g *Graph) *ckptRunner {
	return &ckptRunner{cfg: cfg, optFP: opts.fingerprint(), gDig: g.digest, rec: opts.Recorder, prov: opts.Provenance}
}

func (c *ckptRunner) close() {
	if c.log != nil {
		_ = c.log.Close()
	}
}

// load reads the newest durable state and verifies it belongs to this
// run: same heuristic options, same input files, same graph shape. Any
// disagreement is a typed *MismatchError — resuming anyway could only
// produce an annotation state no uninterrupted run would reach.
func (c *ckptRunner) load(g *Graph) (*ckpt.State, error) {
	st, err := ckpt.Load(c.cfg.Dir)
	if err != nil {
		return nil, err
	}
	if st.OptionsFP != c.optFP {
		return nil, &ckpt.MismatchError{Field: "options", Want: st.OptionsFP, Got: c.optFP}
	}
	if st.InputDigest != c.cfg.InputDigest {
		return nil, &ckpt.MismatchError{Field: "inputs", Want: st.InputDigest, Got: c.cfg.InputDigest}
	}
	if st.GraphDigest != c.gDig {
		return nil, &ckpt.MismatchError{Field: "graph", Want: st.GraphDigest, Got: c.gDig}
	}
	if len(st.Routers) != len(g.Routers) {
		return nil, &ckpt.MismatchError{Field: "routers", Want: uint64(len(st.Routers)), Got: uint64(len(g.Routers))}
	}
	if len(st.Ifaces) != len(g.sortedIfaces) {
		return nil, &ckpt.MismatchError{Field: "interfaces", Want: uint64(len(st.Ifaces)), Got: uint64(len(g.sortedIfaces))}
	}
	if c.prov && !st.HasProv {
		// Provenance is not fingerprinted (it cannot change annotations),
		// but a provenance-enabled resume needs the per-router records up
		// to the snapshot — without them the artifact could not be
		// byte-identical to an uninterrupted run's.
		return nil, &ckpt.MismatchError{Field: "provenance", Want: 0, Got: 1}
	}
	return st, nil
}

// restore applies a verified state: annotations back onto the graph,
// the cycle detector's first-sighting history, the loop metadata, and
// (when provenance is collected) the per-router records and
// per-interface rules as of the state. The graph was just rebuilt
// deterministically from the same inputs, so after this the process
// state matches the checkpointed instant exactly, and st is the run's
// committed state from here on. A malformed provenance blob is a
// *ckpt.FormatError: the framing CRC passed, so only a writer bug or
// targeted corruption can reach it.
func (c *ckptRunner) restore(g *Graph, st *ckpt.State, cycles *cycleDetector, res *Result, pc *provCollector) error {
	if pc != nil && st.HasProv {
		if err := prov.DecodeState(st.Prov, pc.routers, pc.ifaces); err != nil {
			return &ckpt.FormatError{Reason: "provenance blob: " + err.Error()}
		}
	}
	for i, r := range g.Routers {
		r.Annotation = asn.ASN(st.Routers[i])
	}
	for pos, i := range g.sortedIfaces {
		i.Annotation = asn.ASN(st.Ifaces[pos])
	}
	for _, h := range st.Hashes {
		cycles.seen[h.Hash] = h.Iter
	}
	res.Iterations = st.Iteration
	res.Converged = st.Converged
	res.CycleLength = st.CycleLength
	st.Lineage = c.cfg.Lineage
	c.st = st
	if st.Converged {
		return nil // nothing is left to run, so nothing will be written
	}
	if st.HasProv && !c.prov {
		// From here on nobody keeps the provenance records current, so the
		// state stops claiming to hold them. That changes its run id:
		// records this run appends would not fold onto the old base.
		st.HasProv, st.Prov = false, nil
		return c.rebase()
	}
	// Load folded the records that count; a tail torn by the kill is cut
	// before anything lands behind it.
	var err error
	c.log, err = ckpt.OpenIterLog(c.cfg.Dir, false)
	return err
}

// rebase publishes the committed state as the base and drops the log it
// supersedes. A kill between the two is harmless: Fold leaves out
// records of another run or behind the base, and is right to apply those
// of this run's twin (same options, inputs and graph: same iterations).
func (c *ckptRunner) rebase() error {
	err := ckpt.Save(c.cfg.Dir, c.st, c.rec)
	if err == nil {
		c.log, err = ckpt.OpenIterLog(c.cfg.Dir, true)
	}
	return err
}

// start makes a run started from scratch durable before its first
// iteration: the iteration-0 state — what last-hop annotation left on
// the graph, under this run's digests and lineage — becomes the base.
func (c *ckptRunner) start(g *Graph, pc *provCollector) error {
	c.st = &ckpt.State{
		OptionsFP:   c.optFP,
		InputDigest: c.cfg.InputDigest,
		GraphDigest: c.gDig,
		Routers:     make([]uint32, len(g.Routers)),
		Ifaces:      make([]uint32, len(g.sortedIfaces)),
		HasProv:     pc != nil,
		Lineage:     c.cfg.Lineage,
	}
	for i, r := range g.Routers {
		c.st.Routers[i] = uint32(r.Annotation)
	}
	for pos, i := range g.sortedIfaces {
		c.st.Ifaces[pos] = uint32(i.Annotation)
	}
	if pc != nil {
		c.st.Prov = prov.EncodeState(pc.routers, pc.ifaces)
	}
	return c.rebase()
}

// commit records the iteration res.Iterations just committed — its
// change set (the per-shard lists in shard order: ascending index
// order), state hash and trace row — and makes it durable when due: the
// last iteration (convergence or the cap) as a snapshot, so a finished
// run's base says so and needs no log; any other on the stride, as one
// append of every iteration not durable yet (at most Every-1 are lost).
func (c *ckptRunner) commit(res *Result, hash uint64, row obs.Row, histR, histI [][]ckpt.AnnChange, pc *provCollector, last bool) error {
	it := ckpt.IterRecord{
		RunID: c.st.RunID(), Iteration: res.Iterations,
		Converged: res.Converged, CycleLength: res.CycleLength,
		Hash: hash, Row: row,
	}
	for _, cs := range histR {
		it.Delta.Routers = append(it.Delta.Routers, cs...)
	}
	for _, cs := range histI {
		it.Delta.Ifaces = append(it.Delta.Ifaces, cs...)
	}
	if pc != nil {
		it.Prov = prov.EncodeState(pc.routers, pc.ifaces)
	}
	if ok, err := c.st.Fold(&it); err != nil || !ok {
		return fmt.Errorf("core: iteration %d does not follow the committed state at iteration %d (%v)", it.Iteration, c.st.Iteration, err)
	}
	if last {
		return ckpt.Save(c.cfg.Dir, c.st, c.rec)
	}
	c.pending = append(c.pending, it)
	if c.cfg.Every > 1 && it.Iteration%c.cfg.Every != 0 {
		return nil
	}
	err := c.log.Append(c.pending, c.rec)
	c.pending = c.pending[:0]
	return err
}

// tallyFromRow inverts iterTally.row, so a restored convergence trace
// can replay into the recorder's cumulative refine.* counters and the
// resumed run's report is indistinguishable from an uninterrupted one.
func tallyFromRow(row obs.Row) *iterTally {
	return &iterTally{
		changedRouters:  row["routers_changed"],
		changedIfaces:   row["interfaces_changed"],
		votesCast:       row["votes_cast"],
		heurOriginMatch: row["heur_origin_match"],
		heurIXP:         row["heur_ixp"],
		heurUnannounced: row["heur_unannounced"],
		heurThirdParty:  row["heur_third_party"],
		heurRealloc:     row["heur_reallocated"],
		heurException:   row["heur_exception"],
		heurHiddenAS:    row["heur_hidden_as"],
		heurDestTie:     row["heur_dest_tiebreak"],
	}
}
