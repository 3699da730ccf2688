// Package delta is the durable intake layer for continuous ingest: it
// decides, for each arriving traceroute batch, whether the batch is
// new, a crash-interrupted retry, an idempotent re-delivery, or a
// replay of already-seen content — and it makes every one of those
// decisions survivable. The write-ahead intake journal (internal/ckpt
// framing, one fsynced CRC-guarded record per transition) is the
// single source of truth for intake state; a process killed at any
// byte boundary reopens the store, replays the journal, and resumes
// exactly where the transition log left off.
//
// The batch state machine:
//
//	          ┌────────── same name ──────────→ resume apply
//	new ──→ pending ──→ applied ── same name ──→ skip (idempotent)
//	                │        └──── other name ─→ poison (replay)
//	                └─→ quarantined ─ same name → skip
//	                             └─── other name → poison (replay)
//
// Poison batches — decode failures, error-budget blowouts, fingerprint
// replays, and transient I/O failures that survive bounded retry — are
// copied into the quarantine directory with a reason file and recorded
// in the journal. A quarantined batch is never applied and never
// blocks the batches behind it.
package delta

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/ckpt"
	"repro/internal/traceroute"
)

// Directory layout under a Store's root. The refinement checkpoint
// (ckpt.FileName) and the journal (ckpt.JournalName) live directly in
// the root; absorbed batch copies and quarantined batches get their
// own subdirectories.
const (
	AbsorbedDir   = "absorbed"
	QuarantineDir = "quarantine"
)

// Fingerprint identifies a batch by its content alone (FNV-64a over
// the raw bytes). The delivery name is deliberately excluded: the same
// bytes arriving under a different name is how a replay looks, and the
// journal records both the fingerprint and the name so the store can
// tell idempotent re-delivery (same name) from replay (new name).
func Fingerprint(data []byte) uint64 {
	return ckpt.Fingerprint(data)
}

// RefusalClass is the typed reason a batch was refused.
type RefusalClass int

const (
	// RefusalDecode: the batch failed to parse as traceroute JSONL, or
	// parsed to zero traces.
	RefusalDecode RefusalClass = iota + 1
	// RefusalReplay: the batch's content fingerprint was already seen
	// under a different delivery name.
	RefusalReplay
	// RefusalBudget: the batch's malformed-record count blew through
	// the intake error budget.
	RefusalBudget
	// RefusalIO: a transient I/O failure persisted through bounded
	// retry with backoff.
	RefusalIO
)

func (c RefusalClass) String() string {
	switch c {
	case RefusalDecode:
		return "decode"
	case RefusalReplay:
		return "replay"
	case RefusalBudget:
		return "budget"
	case RefusalIO:
		return "io"
	}
	return fmt.Sprintf("refusal(%d)", int(c))
}

// Refusal is a typed batch rejection. It wraps the underlying cause
// (when there is one) so callers can errors.As through it.
type Refusal struct {
	Class RefusalClass
	// Batch is the delivery name of the refused batch.
	Batch string
	// FP is the batch's content fingerprint (0 when the content could
	// not be read at all).
	FP  uint64
	Err error
}

func (r *Refusal) Error() string {
	msg := fmt.Sprintf("delta: batch %s refused (%s)", r.Batch, r.Class)
	if r.Err != nil {
		msg += ": " + r.Err.Error()
	}
	return msg
}

func (r *Refusal) Unwrap() error { return r.Err }

// Status is a batch's position in the intake state machine.
type Status int

const (
	// StatusPending: an intent record was journaled but no terminal
	// record followed — the process died mid-apply.
	StatusPending Status = iota + 1
	// StatusApplied: the batch's annotations were published and the
	// applied record made it to the journal.
	StatusApplied
	// StatusQuarantined: the batch was refused and parked.
	StatusQuarantined
)

func (s Status) String() string {
	switch s {
	case StatusPending:
		return "pending"
	case StatusApplied:
		return "applied"
	case StatusQuarantined:
		return "quarantined"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// BatchState is everything the journal knows about one fingerprint.
type BatchState struct {
	Status Status
	FP     uint64
	// Name is the delivery name the fingerprint was first journaled
	// under.
	Name string
	// Traces is the batch's trace count as recorded in its intent.
	Traces int
	// AnnDigest is the annotation digest recorded when the batch was
	// applied (0 otherwise).
	AnnDigest uint64
	// Reason is the quarantine reason (empty otherwise).
	Reason string
}

// Decision is what the store tells the ingest loop to do with an
// arriving batch.
type Decision int

const (
	// Absorb: never seen — journal an intent and apply it.
	Absorb Decision = iota + 1
	// ResumeApply: an intent is journaled with no terminal record; the
	// previous attempt died mid-apply. Redo the apply (the delta
	// engine is deterministic, so the redo commits the same state).
	ResumeApply
	// Skip: already applied under this name; an idempotent
	// re-delivery. Nothing to do.
	Skip
	// SkipQuarantined: already quarantined under this name; the poison
	// verdict stands. Nothing to do.
	SkipQuarantined
	// Poison: this content was already journaled under a different
	// name — a replay. Quarantine it.
	Poison
)

func (d Decision) String() string {
	switch d {
	case Absorb:
		return "absorb"
	case ResumeApply:
		return "resume-apply"
	case Skip:
		return "skip"
	case SkipQuarantined:
		return "skip-quarantined"
	case Poison:
		return "poison"
	}
	return fmt.Sprintf("decision(%d)", int(d))
}

// Store is the durable intake state of one continuously-refined map:
// the journal, the per-fingerprint state folded from it, and the
// absorbed/quarantine directories. Open replays the journal; every
// mutation appends to it before updating the in-memory fold, so the
// in-memory view never gets ahead of what a crash would preserve.
type Store struct {
	// Dir is the store root. The refinement checkpoint (ckpt.FileName)
	// lives here too, so Dir doubles as the ckpt.Config directory.
	Dir     string
	journal *ckpt.Journal
	state   map[uint64]*BatchState
	order   []uint64 // fingerprints in first-journaled order
}

// Open creates (if needed) and opens the store at dir, replaying the
// intake journal into the per-batch state fold. A journal with a torn
// tail (the tail record's write was interrupted) is repaired by
// truncation; mid-file damage is refused by the journal layer.
func Open(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, AbsorbedDir), filepath.Join(dir, QuarantineDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("delta: creating store: %w", err)
		}
	}
	j, recs, err := ckpt.OpenJournal(filepath.Join(dir, ckpt.JournalName))
	if err != nil {
		return nil, err
	}
	s := &Store{Dir: dir, journal: j, state: make(map[uint64]*BatchState)}
	for _, rec := range recs {
		s.fold(rec)
	}
	return s, nil
}

// fold applies one journal record to the in-memory state. An intent
// never downgrades a terminal state: a re-delivered batch is decided
// before any intent is appended, so an intent following a terminal
// record for the same fingerprint can only be a historical ordering
// artifact, and the terminal verdict stands.
func (s *Store) fold(rec ckpt.JournalRecord) {
	st, ok := s.state[rec.FP]
	if !ok {
		st = &BatchState{FP: rec.FP, Name: rec.Name}
		s.state[rec.FP] = st
		s.order = append(s.order, rec.FP)
	}
	switch rec.Kind {
	case ckpt.JournalIntent:
		if st.Status == StatusApplied || st.Status == StatusQuarantined {
			return
		}
		st.Status = StatusPending
		st.Name = rec.Name
		st.Traces = rec.Traces
	case ckpt.JournalApplied:
		st.Status = StatusApplied
		st.AnnDigest = rec.AnnDigest
	case ckpt.JournalQuarantined:
		// Applied is just as terminal: a quarantine record for an
		// already-applied fingerprint (a replay journaled under the
		// victim's fingerprint by an older writer) must not un-apply
		// the batch the checkpoint lineage already carries.
		if st.Status == StatusApplied {
			return
		}
		st.Status = StatusQuarantined
		st.Reason = rec.Reason
	}
}

// Close releases the journal handle. The store's durable state is
// already on disk; Close exists so tests and long-lived daemons can
// release the descriptor.
func (s *Store) Close() error { return s.journal.Close() }

// State returns the journaled state of a fingerprint.
func (s *Store) State(fp uint64) (BatchState, bool) {
	st, ok := s.state[fp]
	if !ok {
		return BatchState{}, false
	}
	return *st, true
}

// Pending returns the batches whose intent has no terminal record, in
// journal order — the crash-interrupted applies a restart must redo.
func (s *Store) Pending() []BatchState {
	return s.byStatus(StatusPending)
}

// Applied returns the applied batches in journal order.
func (s *Store) Applied() []BatchState {
	return s.byStatus(StatusApplied)
}

// Quarantined returns the quarantined batches in journal order.
func (s *Store) Quarantined() []BatchState {
	return s.byStatus(StatusQuarantined)
}

func (s *Store) byStatus(want Status) []BatchState {
	var out []BatchState
	for _, fp := range s.order {
		if st := s.state[fp]; st.Status == want {
			out = append(out, *st)
		}
	}
	return out
}

// Decide classifies an arriving batch against the journal. It never
// mutates state: the ingest loop acts on the decision (Intent, Applied,
// Quarantine) and those appends are what move the machine.
func (s *Store) Decide(name string, fp uint64) Decision {
	st, ok := s.state[fp]
	if !ok {
		return Absorb
	}
	if st.Name != name {
		return Poison
	}
	switch st.Status {
	case StatusPending:
		return ResumeApply
	case StatusApplied:
		return Skip
	default:
		return SkipQuarantined
	}
}

// Intent journals the intent to apply a batch. After this record is
// durable, a crash at any later point resumes with ResumeApply instead
// of silently dropping or double-counting the batch.
func (s *Store) Intent(fp uint64, name string, traces int) error {
	rec := ckpt.JournalRecord{Kind: ckpt.JournalIntent, FP: fp, Name: name, Traces: traces}
	if err := s.journal.Append(rec); err != nil {
		return fmt.Errorf("delta: journaling intent for %s: %w", name, err)
	}
	s.fold(rec)
	return nil
}

// MarkApplied journals the terminal applied record: the batch's
// refinement state is checkpointed and its annotations published.
// annDigest is the published annotation digest, recorded so an
// operator can later audit which batch produced which output.
func (s *Store) MarkApplied(fp uint64, name string, annDigest uint64) error {
	rec := ckpt.JournalRecord{Kind: ckpt.JournalApplied, FP: fp, Name: name, AnnDigest: annDigest}
	if err := s.journal.Append(rec); err != nil {
		return fmt.Errorf("delta: journaling applied for %s: %w", name, err)
	}
	s.fold(rec)
	return nil
}

// Quarantine parks a refused batch: the raw bytes (when they were
// readable) and a human-readable reason file go into the quarantine
// directory with atomic-publish semantics, then the terminal journal
// record makes the verdict durable. A quarantined batch never blocks
// the batches behind it.
func (s *Store) Quarantine(ref *Refusal, data []byte) error {
	base := filepath.Join(s.Dir, QuarantineDir, s.quarantineBase(ref.FP))
	if data != nil {
		if err := ckpt.AtomicWrite(base+".jsonl", func(w io.Writer) error {
			_, err := w.Write(data)
			return err
		}); err != nil {
			return fmt.Errorf("delta: quarantining %s: %w", ref.Batch, err)
		}
	}
	if err := ckpt.AtomicWrite(base+".reason", func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "batch: %s\nfingerprint: %016x\nclass: %s\nerror: %v\n",
			ref.Batch, ref.FP, ref.Class, ref.Err)
		return err
	}); err != nil {
		return fmt.Errorf("delta: quarantining %s: %w", ref.Batch, err)
	}
	rec := ckpt.JournalRecord{Kind: ckpt.JournalQuarantined, FP: ref.FP, Name: ref.Batch, Reason: ref.Class.String()}
	if err := s.journal.Append(rec); err != nil {
		return fmt.Errorf("delta: journaling quarantine for %s: %w", ref.Batch, err)
	}
	s.fold(rec)
	return nil
}

// quarantineBase is the extension-less quarantine file stem for a
// fingerprint; the batch copy gets .jsonl, the verdict gets .reason.
func (s *Store) quarantineBase(fp uint64) string {
	return fmt.Sprintf("%016x", fp)
}

// AbsorbedPath is where an applied batch's durable copy lives. The
// copy is what rebuilds the merged corpus on restart: checkpoint
// lineage names the fingerprints, this directory holds their bytes.
func (s *Store) AbsorbedPath(fp uint64) string {
	return filepath.Join(s.Dir, AbsorbedDir, fmt.Sprintf("%016x.jsonl", fp))
}

// SaveAbsorbed publishes a batch's durable copy atomically. It runs
// after the intent record and before the apply, so a crash between the
// two finds the bytes it needs to redo the apply.
func (s *Store) SaveAbsorbed(fp uint64, data []byte) error {
	if err := ckpt.AtomicWrite(s.AbsorbedPath(fp), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		return fmt.Errorf("delta: saving absorbed copy: %w", err)
	}
	return nil
}

// BatchStats tallies a validated batch.
type BatchStats struct {
	Traces      int
	BadRecords  int
	Skipped     int
	DroppedHops int
}

// ValidateBatch parses data as traceroute JSONL line by line, tolerating
// up to maxBad malformed lines (the intake error budget). Exceeding the
// budget refuses the whole batch: *Refusal with RefusalDecode when the
// budget is zero (any malformed line is fatal), RefusalBudget when a
// nonzero budget was exhausted. A batch that parses to zero traces is a
// decode refusal — absorbing it would be a no-op that still consumes a
// lineage slot.
func ValidateBatch(name string, fp uint64, data []byte, maxBad int) ([]*traceroute.Trace, BatchStats, error) {
	var (
		stats  BatchStats
		traces []*traceroute.Trace
	)
	refusal := func(class RefusalClass, err error) error {
		return &Refusal{Class: class, Batch: name, FP: fp, Err: err}
	}
	rs, err := traceroute.ScanJSONL(bytes.NewReader(data), func(t *traceroute.Trace) error {
		traces = append(traces, t)
		return nil
	}, func(bad error) error {
		stats.BadRecords++
		switch {
		case stats.BadRecords <= maxBad:
			return nil
		case maxBad == 0:
			return refusal(RefusalDecode, bad)
		}
		return refusal(RefusalBudget, fmt.Errorf("%d malformed record(s) exceed budget %d (%w)", stats.BadRecords, maxBad, bad))
	})
	stats.Traces, stats.Skipped, stats.DroppedHops = rs.Traces, rs.SkippedRecords, rs.DroppedHops
	var refused *Refusal
	switch {
	case errors.As(err, &refused): // the budget's verdict, as returned above
	case err != nil: // the scan itself failed: an over-long line
		err = refusal(RefusalDecode, err)
	case stats.Traces == 0:
		err = refusal(RefusalDecode, errors.New("batch contains no traces"))
	default:
		return traces, stats, nil
	}
	return nil, stats, err
}
