// Package ckpt makes long bdrmapIT runs crash-safe: it serializes the
// refinement loop's committed per-iteration state into a versioned,
// length-prefixed, CRC-guarded binary snapshot, written with
// write-to-temp + fsync + atomic-rename semantics, so the checkpoint on
// disk is always a complete, consistent iteration no matter when the
// process dies.
//
// The engine commits one consistent annotation state per refinement
// iteration (paper §6.3 detects convergence by hashing exactly that
// state), which makes iteration boundaries natural durability points: a
// snapshot holds the router and interface annotations, the iteration
// counter, each iteration's change set and the convergence trace, plus
// fingerprints of the options and inputs that produced them. Replaying
// the change sets onto a freshly rebuilt graph and continuing the loop is
// byte-identical to never having crashed, at every worker count — the
// durability complement of the engine's cancellation-equivalence
// guarantee.
//
// Resume safety is fingerprint-checked: a checkpoint taken under
// different heuristic ablations, different input files, or a different
// graph shape is refused with a typed *MismatchError rather than
// silently producing a state no uninterrupted run could reach.
//
// Encode writes one layout, the current Version. Decode also reads a
// version-3 snapshot, skipping the cycle hashes and provenance blob it
// carries. Anything else is refused. The per-iteration log earlier
// builds kept beside the snapshot is never read: such a directory
// resumes from its snapshot.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
)

// FileName is the snapshot file written inside the checkpoint
// directory. A full run publishes it twice, its iteration-0 state and
// its final one, and nothing between; a delta run publishes only its
// final state.
const FileName = "refine.ckpt"

// Version is the current checkpoint format version. Version 3 added the
// per-iteration refinement history and the batch lineage that resume and
// delta ingest replay; version 4 dropped the cycle-hash history and the
// provenance flag and blob, which nothing read. Decode reads version 3
// too; anything older or newer is refused rather than silently
// reinterpreting bytes.
const Version = 4

// magic identifies a bdrmapIT checkpoint file (8 bytes).
const magic = "BMITCKPT"

// ErrNoCheckpoint reports that the checkpoint directory holds no
// snapshot. Resume is an explicit request; starting silently from
// scratch when the checkpoint is missing (a typo'd directory, a cleanup
// job) would discard the operator's intent, so callers surface this.
var ErrNoCheckpoint = errors.New("ckpt: no checkpoint found")

// TestHook, when non-nil, is invoked at named durability points:
// "pre-rename:<base>" just before AtomicWrite publishes a file, and
// "checkpoint:<iteration>" just after a snapshot of that iteration
// becomes durable. The crash-injection harness uses it to SIGKILL the
// process at exact, reproducible instants; production runs never set it.
var TestHook func(point string)

// Config enables checkpointing for a run.
type Config struct {
	// Dir is the checkpoint directory. Snapshots are written to
	// Dir/FileName; the directory must exist and be writable.
	Dir string
	// InputDigest fingerprints the run's input files (the caller
	// computes it; the root package hashes every source file's
	// contents). Stored in each snapshot and checked on resume, so a
	// checkpoint can never be applied to a different dataset.
	InputDigest uint64
	// Lineage, when non-empty, is stamped into every snapshot: the
	// ordered trace batches delta ingest has already absorbed on top of
	// the base corpus. Full (non-ingest) runs leave it nil.
	Lineage []BatchInfo
}

// AnnChange is one annotation flip inside a refinement iteration: the
// entity at Idx (router ID, or sorted-interface-address position)
// committed annotation Ann. A sequence of per-iteration change sets is
// the refinement trajectory a resume replays, and delta ingest onto the
// untouched part of a grown graph.
type AnnChange struct {
	Idx uint32
	Ann uint32
}

// IterDelta is the complete change set of one committed refinement
// iteration, routers and interfaces separately, each ordered by index.
type IterDelta struct {
	Routers []AnnChange
	Ifaces  []AnnChange
}

// BatchInfo identifies one absorbed trace batch in a checkpoint's
// lineage: its content fingerprint, its original base name, and how
// many traces it contributed.
type BatchInfo struct {
	FP     uint64
	Name   string
	Traces int
}

// State is one committed refinement iteration, plus everything needed
// to refuse an incompatible resume. Annotation slices are indexed by
// the graph's deterministic orders (router ID, sorted interface
// address), which GraphDigest pins.
type State struct {
	// OptionsFP fingerprints the heuristic ablation switches. Worker
	// count (result-invariant by the sharding contract) and the
	// iteration cap (a stopping rule — resuming with a larger cap is
	// how a capped run is extended) are deliberately excluded.
	OptionsFP uint64
	// InputDigest is Config.InputDigest at snapshot time.
	InputDigest uint64
	// GraphDigest fingerprints the rebuilt graph's shape: interface
	// addresses and their partition into routers.
	GraphDigest uint64

	// Iteration is the committed iteration this state belongs to.
	Iteration int
	// Converged and CycleLength record a loop that stopped on a repeated state.
	Converged   bool
	CycleLength int

	// Routers holds each router's committed annotation, indexed by
	// router ID.
	Routers []uint32
	// Ifaces holds each interface's committed annotation, indexed by
	// the graph's sorted-address order.
	Ifaces []uint32
	// Trace is the per-iteration convergence trace through Iteration:
	// the rows of the iterations a resume replays.
	Trace []obs.Row

	// History holds each committed iteration's change set: History[k]
	// is iteration k+1. Resume and delta ingest replay it, so they require
	// it complete (len == Iteration) — RequireHistory checks.
	History []IterDelta
	// Lineage is Config.Lineage at snapshot time: the absorbed trace
	// batches, in application order, whose traces are part of this
	// snapshot's input set beyond the base corpus.
	Lineage []BatchInfo
}

// HistoryError reports a snapshot that neither a resume nor delta ingest
// can replay: its refinement history does not cover every iteration. The
// fix is to rerun the full pipeline so a complete snapshot exists.
type HistoryError struct {
	Iteration  int
	HistoryLen int
}

func (e *HistoryError) Error() string {
	return fmt.Sprintf("ckpt: checkpoint history covers %d of %d iterations; resume and delta ingest need a complete history — rerun the full pipeline with this build to produce one",
		e.HistoryLen, e.Iteration)
}

// RequireHistory verifies the snapshot carries the complete refinement
// trajectory delta ingest replays: one change set per committed
// iteration. Anything less returns a typed *HistoryError directing the
// operator to a full rerun.
func (st *State) RequireHistory() error {
	if len(st.History) != st.Iteration {
		return &HistoryError{Iteration: st.Iteration, HistoryLen: len(st.History)}
	}
	return nil
}

// MismatchError reports a checkpoint that cannot be applied to this
// run: its fingerprints disagree with the current options, inputs, or
// graph. Resume refuses rather than risking a state no uninterrupted
// run could produce.
type MismatchError struct {
	// Field names what disagreed: "options", "inputs", "graph",
	// "routers", or "interfaces".
	Field string
	// Want is the checkpoint's value, Got the current run's.
	Want, Got uint64
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("ckpt: %s mismatch: checkpoint recorded %#x but this run has %#x; refusing to resume (rerun without resume, or delete the checkpoint, to start fresh)",
		e.Field, e.Want, e.Got)
}

// FormatError reports a checkpoint file that failed structural
// validation: wrong magic or version, bad length, failed CRC, or a
// malformed payload. A truncated or bit-rotted snapshot is detected
// here rather than surfacing as corrupt annotations.
type FormatError struct {
	Reason string
}

func (e *FormatError) Error() string { return "ckpt: invalid checkpoint: " + e.Reason }

// Encode writes st to w in the checkpoint format: the shared artifact
// envelope (WriteFrame: magic, version, length prefix, trailing CRC)
// around a payload of little-endian words and (zigzag) varints;
// map-valued rows serialize with sorted keys, so encoding is a pure
// function of st and re-encoding a decoded state is byte-identical.
func Encode(w io.Writer, st *State) error {
	return WriteFrame(w, magic, Version, appendPayload(nil, st))
}

func appendPayload(p []byte, st *State) []byte {
	p = binary.LittleEndian.AppendUint64(p, st.OptionsFP)
	p = binary.LittleEndian.AppendUint64(p, st.InputDigest)
	p = binary.LittleEndian.AppendUint64(p, st.GraphDigest)
	p = binary.AppendUvarint(p, uint64(st.Iteration))
	p = AppendBool(p, st.Converged)
	p = binary.AppendUvarint(p, uint64(st.CycleLength))
	p = binary.AppendUvarint(p, uint64(len(st.Routers)))
	for _, a := range st.Routers {
		p = binary.AppendUvarint(p, uint64(a))
	}
	p = binary.AppendUvarint(p, uint64(len(st.Ifaces)))
	for _, a := range st.Ifaces {
		p = binary.AppendUvarint(p, uint64(a))
	}
	p = binary.AppendUvarint(p, uint64(len(st.Trace)))
	for _, row := range st.Trace {
		p = appendRow(p, row)
	}
	p = binary.AppendUvarint(p, uint64(len(st.History)))
	for _, it := range st.History {
		p = appendChanges(p, it.Routers)
		p = appendChanges(p, it.Ifaces)
	}
	p = binary.AppendUvarint(p, uint64(len(st.Lineage)))
	for _, b := range st.Lineage {
		p = binary.LittleEndian.AppendUint64(p, b.FP)
		p = AppendString(p, b.Name)
		p = binary.AppendUvarint(p, uint64(b.Traces))
	}
	return p
}

// appendRow serializes one convergence-trace row with sorted keys.
func appendRow(p []byte, row obs.Row) []byte {
	keys := make([]string, 0, len(row))
	//lint:ignore maporder keys are collected then sorted before serialization
	for k := range row {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	p = binary.AppendUvarint(p, uint64(len(keys)))
	for _, k := range keys {
		p = AppendString(p, k)
		p = binary.AppendVarint(p, row[k])
	}
	return p
}

// appendChanges serializes one ordered change set. Indices are written
// as deltas from their predecessor: change sets are index-sorted, and
// on large graphs the gap varints stay short where absolute indices
// would not.
func appendChanges(p []byte, cs []AnnChange) []byte {
	p = binary.AppendUvarint(p, uint64(len(cs)))
	prev := uint32(0)
	for _, c := range cs {
		p = binary.AppendUvarint(p, uint64(c.Idx-prev))
		p = binary.AppendUvarint(p, uint64(c.Ann))
		prev = c.Idx
	}
	return p
}

// Decode reads one checkpoint from r, validating magic, version, the
// length prefix, the trailing CRC, and every payload bound (Reader's
// rules). Structural failures return a *FormatError; Decode never
// panics on corrupt input and never allocates more than the input
// length implies.
func Decode(r io.Reader) (*State, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ckpt: reading checkpoint: %w", err)
	}
	st, err := decode(data)
	if err != nil {
		return nil, formatError(err)
	}
	return st, nil
}

// formatError turns the wire's refusal (frame or payload) into this
// package's typed one.
func formatError(err error) error {
	var fe *FrameError
	if errors.As(err, &fe) {
		return &FormatError{Reason: fe.Reason}
	}
	return err
}

const kind = "bdrmapIT checkpoint"

func decode(data []byte) (*State, error) {
	payload, version, err := ReadFrameRange(data, magic, Version-1, Version, kind)
	if err != nil {
		return nil, err
	}
	v3 := version < Version
	d := NewReader(payload, kind)
	st := &State{
		OptionsFP:   d.U64(),
		InputDigest: d.U64(),
		GraphDigest: d.U64(),
		Iteration:   d.Int("iteration"),
		Converged:   d.Bool("converged"),
		CycleLength: d.Int("cycle length"),
	}
	if v3 { // the cycle hashes, each a word and its iteration
		for n := d.Count("hash history length", 9); n > 0 && d.OK(); n-- {
			d.U64()
			d.Int("hash iteration")
		}
	}
	for n := d.Count("router count", 1); n > 0 && d.OK(); n-- {
		st.Routers = append(st.Routers, d.U32("router annotation"))
	}
	for n := d.Count("interface count", 1); n > 0 && d.OK(); n-- {
		st.Ifaces = append(st.Ifaces, d.U32("interface annotation"))
	}
	for n := d.Count("trace length", 1); n > 0 && d.OK(); n-- {
		st.Trace = append(st.Trace, readRow(d))
	}
	if v3 { // the provenance flag and blob
		d.Bool("provenance")
		d.Blob("provenance blob")
	}
	for n := d.Count("history length", 2); n > 0 && d.OK(); n-- {
		st.History = append(st.History, IterDelta{
			Routers: readChanges(d, "router history"),
			Ifaces:  readChanges(d, "interface history"),
		})
	}
	for n := d.Count("lineage length", 10); n > 0 && d.OK(); n-- {
		st.Lineage = append(st.Lineage, BatchInfo{
			FP:     d.U64(),
			Name:   d.String("lineage batch name"),
			Traces: d.Int("lineage batch trace count"),
		})
	}
	return st, d.Finish()
}

// readRow reads one convergence-trace row.
func readRow(d *Reader) obs.Row {
	nk := d.Count("trace row key count", 2)
	row := make(obs.Row, nk)
	for ; nk > 0 && d.OK(); nk-- {
		row[d.String("trace row key")] = d.Varint("trace row value")
	}
	return row
}

// readChanges reads one ordered change set (gap-encoded indices).
func readChanges(d *Reader, what string) []AnnChange {
	n := d.Count(what+" length", 2)
	if n == 0 {
		return nil
	}
	cs := make([]AnnChange, 0, n)
	gap, ann := what+" index gap", what+" annotation"
	prev := uint32(0)
	for ; n > 0 && d.OK(); n-- {
		prev += d.U32(gap)
		cs = append(cs, AnnChange{Idx: prev, Ann: d.U32(ann)})
	}
	return cs
}

// Save atomically publishes st as dir/FileName: the snapshot is
// encoded, written to a temp file, fsynced, and renamed over any
// previous snapshot, so a crash at any instant leaves either the old
// complete checkpoint or the new one — never a torn file. Its time goes
// to rec (nil-safe) as ckpt.write_ns, and ckpt.writes counts it.
func Save(dir string, st *State, rec *obs.Recorder) error {
	start := time.Now()
	path := filepath.Join(dir, FileName)
	if err := AtomicWrite(path, func(w io.Writer) error { return Encode(w, st) }); err != nil {
		return fmt.Errorf("ckpt: writing snapshot for iteration %d: %w", st.Iteration, err)
	}
	if rec.Enabled() {
		rec.Histogram("ckpt.write_ns").Observe(time.Since(start).Nanoseconds())
		rec.Counter("ckpt.writes").Inc()
	}
	if TestHook != nil {
		TestHook("checkpoint:" + strconv.Itoa(st.Iteration))
	}
	return nil
}

// Load reads the durable state in dir, its snapshot. A missing snapshot
// reports ErrNoCheckpoint (wrapped); a structurally invalid one reports
// a *FormatError.
func Load(dir string) (*State, error) {
	path := filepath.Join(dir, FileName)
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w in %s (was a checkpoint ever written there?)", ErrNoCheckpoint, dir)
		}
		return nil, fmt.Errorf("ckpt: opening %s: %w", path, err)
	}
	defer f.Close()
	st, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %s: %w", path, err)
	}
	return st, nil
}
