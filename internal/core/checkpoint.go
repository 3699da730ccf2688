package core

import (
	"encoding/binary"
	"hash/fnv"
	"sort"

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
// per-iteration state capture.
type ckptRunner struct {
	cfg   *ckpt.Config
	optFP uint64
	gDig  uint64
	rec   *obs.Recorder
	prov  bool
	// hist accumulates each committed iteration's change set — the
	// refinement trajectory delta ingest later replays. Restored from the
	// snapshot on resume so the recorded history always starts at
	// iteration 1; a resume from a pre-history (v2) snapshot leaves the
	// early iterations missing, which RequireHistory detects downstream.
	hist []ckpt.IterDelta
}

func newCkptRunner(cfg *ckpt.Config, opts *Options, g *Graph) *ckptRunner {
	return &ckptRunner{cfg: cfg, optFP: opts.fingerprint(), gDig: g.digest, rec: opts.Recorder, prov: opts.Provenance}
}

// due reports whether iteration iter's committed state should be made
// durable: on the configured stride, and always on the final iteration
// (convergence or the cap), so the newest checkpoint is never more than
// Every-1 iterations stale and a finished run's snapshot marks it
// finished.
func (c *ckptRunner) due(iter int, repeated bool, maxIter int) bool {
	return c.cfg.Every <= 1 || iter%c.cfg.Every == 0 || repeated || iter == maxIter
}

// load reads the snapshot and verifies it belongs to this run: same
// heuristic options, same input files, same graph shape. Any
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

// restore applies a verified snapshot: annotations back onto the graph,
// the cycle detector's first-sighting history, the loop metadata, and
// (when provenance is collected) the per-router records and
// per-interface rules as of the snapshot. The graph was just rebuilt
// deterministically from the same inputs, so after this the process
// state matches the checkpointed instant exactly. A malformed
// provenance blob is a *ckpt.FormatError: the framing CRC passed, so
// only a writer bug or targeted corruption can reach it.
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
	c.hist = st.History
	return nil
}

// appendHistory commits one iteration's change set: the per-shard lists
// are concatenated in shard order, which is ascending index order
// because shards partition the index space contiguously.
func (c *ckptRunner) appendHistory(histR, histI [][]ckpt.AnnChange) {
	var it ckpt.IterDelta
	for _, cs := range histR {
		it.Routers = append(it.Routers, cs...)
	}
	for _, cs := range histI {
		it.Ifaces = append(it.Ifaces, cs...)
	}
	c.hist = append(c.hist, it)
}

// save captures the just-committed iteration and publishes it
// atomically. traceRows is aliased, not copied: the snapshot is encoded
// before save returns, so later appends cannot leak in.
func (c *ckptRunner) save(g *Graph, res *Result, cycles *cycleDetector, traceRows []obs.Row, pc *provCollector) error {
	st := &ckpt.State{
		OptionsFP:   c.optFP,
		InputDigest: c.cfg.InputDigest,
		GraphDigest: c.gDig,
		Iteration:   res.Iterations,
		Converged:   res.Converged,
		CycleLength: res.CycleLength,
		Routers:     make([]uint32, len(g.Routers)),
		Ifaces:      make([]uint32, len(g.sortedIfaces)),
		Trace:       traceRows,
	}
	for i, r := range g.Routers {
		st.Routers[i] = uint32(r.Annotation)
	}
	for pos, i := range g.sortedIfaces {
		st.Ifaces[pos] = uint32(i.Annotation)
	}
	st.Hashes = make([]ckpt.IterHash, 0, len(cycles.seen))
	for h, iter := range cycles.seen {
		st.Hashes = append(st.Hashes, ckpt.IterHash{Hash: h, Iter: iter})
	}
	sort.Slice(st.Hashes, func(i, j int) bool { return st.Hashes[i].Iter < st.Hashes[j].Iter })
	if pc != nil {
		st.HasProv = true
		st.Prov = prov.EncodeState(pc.routers, pc.ifaces)
	}
	st.History = c.hist
	st.Lineage = c.cfg.Lineage
	return ckpt.Save(c.cfg.Dir, st, c.rec)
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
