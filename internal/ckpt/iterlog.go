package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obs"
)

// LogName is the refinement log beside FileName in a checkpoint
// directory: FileName is a base — a whole State, written at a full run's
// iteration 0 and at its end — and the log holds one record per
// iteration committed between, so making an iteration durable costs its
// change set and one fsync. Load folds the records onto the base; the
// base alone is always a valid, possibly older, state (DESIGN §11).
const LogName = "refine.log"

// iterVersion 2 dropped version 1's state hash and provenance blob. A
// version-1 record is refused at the frame, so the log a build before it
// wrote is not folded and its directory resumes from the base.
const (
	iterMagic   = "BMITITER"
	iterVersion = 2
	iterKind    = "bdrmapIT refinement log record"
)

// IterRecord is one committed iteration as the log holds it: what turns
// the State of Iteration-1 into the State of Iteration. Converged and
// CycleLength are the State's afterwards and Row the trace row.
type IterRecord struct {
	RunID       uint64
	Iteration   int
	Converged   bool
	CycleLength int
	Delta       IterDelta
	Row         obs.Row
}

// RunID identifies the run a state belongs to: one fingerprint of what
// resume requires to match (options, inputs, graph shape). Refinement is
// a deterministic function of those, so two runs with one id commit the
// same iterations.
func (st *State) RunID() uint64 {
	p := binary.LittleEndian.AppendUint64(nil, st.OptionsFP)
	p = binary.LittleEndian.AppendUint64(p, st.InputDigest)
	return Fingerprint(binary.LittleEndian.AppendUint64(p, st.GraphDigest))
}

// Fold applies rec to st when it is the next iteration of st's run, and
// reports whether it was. Leaving every other record out is what lets
// log and base be written with no atomicity between them: a record of
// another run (the log outlived a new base), one st already holds (the
// base was rewritten past it) and one past a gap change nothing. A
// matching record whose indices fall outside st is a *FormatError.
func (st *State) Fold(rec *IterRecord) (bool, error) {
	if rec.RunID != st.RunID() || rec.Iteration != st.Iteration+1 {
		return false, nil
	}
	for _, set := range []struct {
		dst []uint32
		cs  []AnnChange
	}{{st.Routers, rec.Delta.Routers}, {st.Ifaces, rec.Delta.Ifaces}} {
		for _, c := range set.cs {
			if int(c.Idx) >= len(set.dst) {
				return false, &FormatError{Reason: fmt.Sprintf("iteration record %d: index %d of %d", rec.Iteration, c.Idx, len(set.dst))}
			}
			set.dst[c.Idx] = c.Ann
		}
	}
	st.Iteration = rec.Iteration
	st.Converged, st.CycleLength = rec.Converged, rec.CycleLength
	st.Trace = append(st.Trace, rec.Row)
	st.History = append(st.History, rec.Delta)
	return true, nil
}

// foldLog folds dir's log onto st, counting in st.FromLog. A missing log
// is an empty one; what follows the last intact record is a torn append.
func foldLog(dir string, st *State) error {
	path := filepath.Join(dir, LogName)
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("ckpt: reading %s: %w", path, err)
	}
	recs, _, _ := scanLog(data, "iteration record", decodeIterRecord)
	for i := range recs {
		if ok, err := st.Fold(&recs[i]); err != nil {
			return fmt.Errorf("ckpt: %s: %w", path, err)
		} else if ok {
			st.FromLog++
		}
	}
	return nil
}

func decodeIterRecord(frame []byte) (IterRecord, error) {
	payload, err := ReadFrame(frame, iterMagic, iterVersion, iterKind)
	if err != nil {
		return IterRecord{}, err
	}
	d := NewReader(payload, iterKind)
	rec := IterRecord{
		RunID:       d.U64(),
		Iteration:   d.Int("iteration"),
		Converged:   d.Bool("converged"),
		CycleLength: d.Int("cycle length"),
		Delta:       IterDelta{Routers: readChanges(d, "router changes"), Ifaces: readChanges(d, "interface changes")},
		Row:         readRow(d),
	}
	return rec, d.Finish()
}

// EncodeIterRecord frames one record as it appears in the log.
func EncodeIterRecord(rec *IterRecord) []byte {
	p := binary.LittleEndian.AppendUint64(nil, rec.RunID)
	p = binary.AppendUvarint(p, uint64(rec.Iteration))
	p = AppendBool(p, rec.Converged)
	p = binary.AppendUvarint(p, uint64(rec.CycleLength))
	p = appendChanges(p, rec.Delta.Routers)
	p = appendChanges(p, rec.Delta.Ifaces)
	return frameBytes(iterMagic, iterVersion, appendRow(p, rec.Row))
}

// IterLog is a checkpoint directory's refinement log, open for appending.
type IterLog struct{ log *appendLog }

// OpenIterLog starts dir's refinement log afresh behind the base the
// caller just published: the old file is removed and an empty one opened.
func OpenIterLog(dir string) (*IterLog, error) {
	if err := RemoveLog(dir); err != nil {
		return nil, err
	}
	l, _, err := openLog(filepath.Join(dir, LogName), "iteration record", decodeIterRecord)
	if err != nil {
		return nil, err
	}
	return &IterLog{log: l}, nil
}

// Append makes recs — consecutive iterations, oldest first — durable
// with one write and one fsync, then fires the newest's
// "checkpoint:<iteration>" TestHook point. rec (nil-safe) gets
// ckpt.write_ns, ckpt.appends and ckpt.log_bytes.
func (l *IterLog) Append(recs []IterRecord, rec *obs.Recorder) error {
	start := time.Now()
	var frames []byte
	for i := range recs {
		frames = append(frames, EncodeIterRecord(&recs[i])...)
	}
	last := recs[len(recs)-1].Iteration
	if err := l.log.append(frames); err != nil {
		return fmt.Errorf("ckpt: logging iteration %d: %w", last, err)
	}
	rec.Gauge("ckpt.log_bytes").Set(l.log.size)
	durable(rec, start, "ckpt.appends", last)
	return nil
}

// RemoveLog removes dir's refinement log, which the base the caller has
// just published, or publishes next, supersedes. Were the removal lost
// to a crash, Fold would leave the old records out; a Save after it
// makes it durable with the same directory fsync.
func RemoveLog(dir string) error {
	path := filepath.Join(dir, LogName)
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("ckpt: removing superseded %s: %w", path, err)
	}
	return nil
}

// Close closes the log file.
func (l *IterLog) Close() error { return l.log.Close() }
