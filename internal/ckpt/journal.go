package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
)

// The intake journal is the write-ahead log of the continuous-ingest
// path: before any trace batch mutates durable state, an intent record
// lands here, and the batch's terminal fate (applied or quarantined)
// lands here too. Each record is a self-contained artifact frame
// (journalMagic + CRC, the same envelope as every other serialized
// format in the repo), appended with O_APPEND and fsynced, so the
// journal after a SIGKILL at any byte boundary is a valid record
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
type Journal struct {
	f    *os.File
	path string
	// err latches the first failed write or sync: the bytes a short write
	// left are a torn tail only while nothing follows them, and a later
	// append would make them the mid-file damage the next open refuses.
	err error
}

// OpenJournal opens (creating if absent) the journal at path, returns
// every intact record, and repairs a torn tail: a trailing fragment that
// fails framing or CRC — the signature of a kill mid-append — is
// truncated so the next append starts on a record boundary. A valid
// record after the first bad frame is refused instead: O_APPEND plus
// fsync ordering cannot produce it, and dropping records would be worse.
func OpenJournal(path string) (*Journal, []JournalRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, fmt.Errorf("ckpt: reading %s: %w", path, err)
	}
	recs, consumed, derr := DecodeJournal(data)
	if derr != nil {
		// A frame whose declared length runs past the file has nothing
		// beyond it: a tail by definition.
		if end, ok := frameEnd(data[consumed:]); ok {
			if later, _, _ := DecodeJournal(data[consumed+end:]); len(later) > 0 {
				return nil, nil, fmt.Errorf("ckpt: %s: journal record %d is corrupt but later records are intact — mid-file damage, not a torn append; refusing to repair: %w", path, len(recs), derr)
			}
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("ckpt: opening %s: %w", path, err)
	}
	if consumed < len(data) {
		if err = f.Truncate(int64(consumed)); err == nil {
			err = f.Sync()
		}
		if err != nil {
			_ = f.Close()
			return nil, nil, fmt.Errorf("ckpt: truncating torn tail of %s at byte %d: %w", path, consumed, err)
		}
	}
	return &Journal{f: f, path: path}, recs, nil
}

// DecodeJournal parses records from the head of data until it is
// exhausted or a frame fails to validate, returning the intact records,
// how many bytes they span, and the first validation failure (nil when
// the whole buffer parsed). Whether that is a repairable torn tail is
// the caller's judgement.
func DecodeJournal(data []byte) ([]JournalRecord, int, error) {
	var recs []JournalRecord
	off := 0
	for off < len(data) {
		end, ok := frameEnd(data[off:])
		if !ok {
			return recs, off, &FormatError{Reason: fmt.Sprintf("journal record %d: truncated header or payload (%d bytes remain)", len(recs), len(data)-off)}
		}
		rec, err := decodeJournalRecord(data[off : off+end])
		if err != nil {
			return recs, off, fmt.Errorf("journal record %d: %w", len(recs), err)
		}
		recs = append(recs, rec)
		off += end
	}
	return recs, off, nil
}

// frameEnd returns where the frame at the head of data ends by its
// declared length (magic[8] version[1] len[4] payload crc[4]), and false
// when data holds less than that.
func frameEnd(data []byte) (int, bool) {
	const fixed = 8 + 1 + 4 + 4
	if len(data) < fixed {
		return 0, false
	}
	end := fixed + uint64(binary.LittleEndian.Uint32(data[8+1:]))
	return int(end), end <= uint64(len(data))
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

// Append writes rec as one framed record with one write and one fsync
// before returning, so a record the caller believes in has survived any
// subsequent crash. A short or failed write leaves a torn tail the next
// open repairs, and fails every later append on this handle. After the
// record is durable the "journal:<kind>" TestHook point fires, giving
// the crash harness a seam exactly between a batch's durability
// milestones.
func (j *Journal) Append(rec JournalRecord) error {
	if j.err == nil {
		var w io.Writer = j.f
		if TestWriteWrap != nil {
			w = TestWriteWrap(w)
		}
		_, err := w.Write(EncodeJournalRecord(rec))
		if err == nil {
			err = j.f.Sync()
		}
		if err != nil {
			j.err = fmt.Errorf("ckpt: appending to %s: %w", j.path, err)
		}
	}
	if j.err != nil {
		return fmt.Errorf("ckpt: journaling %s record: %w", rec.Kind, j.err)
	}
	if TestHook != nil {
		TestHook("journal:" + rec.Kind.String())
	}
	return nil
}

// Close closes the journal file; closing twice is harmless.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
