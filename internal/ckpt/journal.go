package ckpt

import (
	"encoding/binary"
	"fmt"
)

// The intake journal is the write-ahead log of the continuous-ingest
// path: before any trace batch mutates durable state, an intent record
// lands here, and the batch's terminal fate (applied or quarantined)
// lands here too. Each record is a self-contained artifact frame
// (journalMagic + CRC, the same envelope as every other serialized
// format in the repo) in the repo's one append-only record file (log.go),
// so the journal after a SIGKILL at any byte boundary is a valid record
// sequence followed by at most one torn tail, which opening it repairs.
// Replaying the surviving records rebuilds the intake state machine
// exactly: which fingerprints are applied, which are quarantined, and
// which intents are still pending redo.

// JournalName is the intake journal file inside an ingest state
// directory.
const JournalName = "intake.journal"

// journalMagic identifies one intake-journal record frame (8 bytes).
const journalMagic = "BMITJRNL"

// journalVersion is the record format version.
const journalVersion = 1

// JournalKind is the record type tag.
type JournalKind byte

const (
	// JournalIntent: a batch passed validation and is about to be
	// applied. A pending intent (no matching applied/quarantined record)
	// after a restart means the apply must be redone.
	JournalIntent JournalKind = 1
	// JournalApplied: the batch's refinement state and outputs are
	// durable; offering the same fingerprint again is a no-op (same
	// name) or a replay refusal (different name).
	JournalApplied JournalKind = 2
	// JournalQuarantined: the batch was refused and moved to the
	// quarantine directory; it must never be applied.
	JournalQuarantined JournalKind = 3
)

func (k JournalKind) String() string {
	switch k {
	case JournalIntent:
		return "intent"
	case JournalApplied:
		return "applied"
	case JournalQuarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("kind(%d)", byte(k))
	}
}

// JournalRecord is one intake-journal entry. FP and Name identify the
// batch in every kind; Traces is set on intents, AnnDigest (the
// annotations-rendering digest after absorption) on applied records,
// and Reason on quarantined ones.
type JournalRecord struct {
	Kind      JournalKind
	FP        uint64
	Name      string
	Traces    int
	AnnDigest uint64
	Reason    string
}

// Journal is an open intake journal positioned for appending.
type Journal struct{ log *appendLog }

// OpenJournal opens (creating if absent) the journal at path, returns
// every intact record, and repairs a torn tail; mid-file damage is
// refused (openLog).
func OpenJournal(path string) (*Journal, []JournalRecord, error) {
	l, recs, err := openLog(path, "journal record", decodeJournalRecord)
	if err != nil {
		return nil, nil, err
	}
	return &Journal{log: l}, recs, nil
}

// DecodeJournal parses records from the head of data until it is
// exhausted or a frame fails to validate, returning the intact records,
// how many bytes they span, and the first validation failure (nil when
// the whole buffer parsed).
func DecodeJournal(data []byte) ([]JournalRecord, int, error) {
	return scanLog(data, "journal record", decodeJournalRecord)
}

const journalKind = "bdrmapIT intake journal record"

func decodeJournalRecord(frame []byte) (JournalRecord, error) {
	payload, err := ReadFrame(frame, journalMagic, journalVersion, journalKind)
	if err != nil {
		return JournalRecord{}, err
	}
	d := NewReader(payload, journalKind)
	rec := JournalRecord{
		Kind: JournalKind(d.Byte()),
		FP:   d.U64(),
		Name: d.String("batch name"),
	}
	switch rec.Kind {
	case JournalIntent:
		rec.Traces = d.Int("intent trace count")
	case JournalApplied:
		rec.AnnDigest = d.U64()
	case JournalQuarantined:
		rec.Reason = d.String("quarantine reason")
	default:
		d.Fail("unknown journal record kind %d", byte(rec.Kind))
	}
	return rec, d.Finish()
}

func appendJournalRecord(p []byte, rec JournalRecord) []byte {
	p = append(p, byte(rec.Kind))
	p = binary.LittleEndian.AppendUint64(p, rec.FP)
	p = AppendString(p, rec.Name)
	switch rec.Kind {
	case JournalIntent:
		p = binary.AppendUvarint(p, uint64(rec.Traces))
	case JournalApplied:
		p = binary.LittleEndian.AppendUint64(p, rec.AnnDigest)
	case JournalQuarantined:
		p = AppendString(p, rec.Reason)
	}
	return p
}

// EncodeJournalRecord frames one record as it would appear in the
// journal file. Exposed for the fuzz corpus and tests; Append is the
// durable path.
func EncodeJournalRecord(rec JournalRecord) []byte {
	return frameBytes(journalMagic, journalVersion, appendJournalRecord(nil, rec))
}

// Append writes rec as one framed record and fsyncs before returning,
// so a record the caller believes in has survived any subsequent crash.
// After the record is durable the "journal:<kind>" TestHook point fires,
// giving the crash harness a seam exactly between a batch's durability
// milestones.
func (j *Journal) Append(rec JournalRecord) error {
	if err := j.log.append(EncodeJournalRecord(rec)); err != nil {
		return fmt.Errorf("ckpt: journaling %s record: %w", rec.Kind, err)
	}
	if TestHook != nil {
		TestHook("journal:" + rec.Kind.String())
	}
	return nil
}

// Close closes the journal file.
func (j *Journal) Close() error { return j.log.Close() }
