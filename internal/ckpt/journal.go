package ckpt

import (
	"bytes"
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
// format in the repo) appended with O_APPEND and fsynced, so the
// journal after a SIGKILL at any byte boundary is a valid record
// sequence followed by at most one torn tail — which Open detects by
// CRC and truncates away. Replaying the surviving records rebuilds the
// intake state machine exactly: which fingerprints are applied, which
// are quarantined, and which intents are still pending redo.

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
}

// OpenJournal opens (creating if absent) the journal at path, scans and
// returns every intact record, and repairs a torn tail: a trailing
// fragment that fails framing or CRC validation — the signature of a
// kill mid-append — is truncated so the next append starts on a record
// boundary. Corruption that is not confined to the tail (valid-looking
// data after the first bad frame) is an error, not a repair: O_APPEND
// plus fsync ordering cannot produce it, so something else damaged the
// file and silently dropping records would be worse.
func OpenJournal(path string) (*Journal, []JournalRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, fmt.Errorf("ckpt: reading journal %s: %w", path, err)
	}
	recs, consumed, derr := DecodeJournal(data)
	if derr != nil {
		// The undecodable region must be pure tail: nothing beyond it may
		// parse as a record, otherwise this is mid-file damage.
		if rest, _, _ := DecodeJournal(skipOneFrame(data[consumed:])); len(rest) > 0 {
			return nil, nil, fmt.Errorf("ckpt: journal %s: record %d is corrupt but later records are intact — mid-file damage, not a torn append; refusing to repair: %w", path, len(recs), derr)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("ckpt: opening journal %s: %w", path, err)
	}
	if consumed < len(data) {
		if err := f.Truncate(int64(consumed)); err != nil {
			_ = f.Close()
			return nil, nil, fmt.Errorf("ckpt: truncating torn journal tail of %s at byte %d: %w", path, consumed, err)
		}
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return nil, nil, fmt.Errorf("ckpt: syncing repaired journal %s: %w", path, err)
		}
	}
	if _, err := f.Seek(int64(consumed), io.SeekStart); err != nil {
		_ = f.Close()
		return nil, nil, fmt.Errorf("ckpt: seeking journal %s: %w", path, err)
	}
	return &Journal{f: f, path: path}, recs, nil
}

// skipOneFrame drops the first (possibly torn) frame from data using
// its declared length, so the torn-tail check can probe whether any
// decodable records follow it. Undecipherable headers skip nothing —
// the caller's reparse then starts inside the damage and finds no
// records, which is the conservative (repairable) verdict only when the
// rest of the file is garbage too.
func skipOneFrame(data []byte) []byte {
	headLen := len(journalMagic) + 1 + 4
	if len(data) < headLen {
		return nil
	}
	plen := binary.LittleEndian.Uint32(data[len(journalMagic)+1:])
	end := uint64(headLen) + uint64(plen) + 4
	if end > uint64(len(data)) {
		return nil
	}
	return data[end:]
}

// DecodeJournal parses records from the head of data until it is
// exhausted or a frame fails to validate, returning the intact records,
// how many bytes they span, and the first validation failure (nil when
// the whole buffer parsed). Callers deciding whether a failure is a
// repairable torn tail own that judgement; DecodeJournal only reports
// where clean data ends.
func DecodeJournal(data []byte) ([]JournalRecord, int, error) {
	var recs []JournalRecord
	off := 0
	headLen := len(journalMagic) + 1 + 4
	for off < len(data) {
		rest := data[off:]
		if len(rest) < headLen+4 {
			return recs, off, &FormatError{Reason: fmt.Sprintf("journal record %d: truncated header (%d bytes)", len(recs), len(rest))}
		}
		plen := binary.LittleEndian.Uint32(rest[len(journalMagic)+1:])
		end := uint64(headLen) + uint64(plen) + 4
		if end > uint64(len(rest)) {
			return recs, off, &FormatError{Reason: fmt.Sprintf("journal record %d: declares %d payload bytes but only %d remain", len(recs), plen, len(rest)-headLen-4)}
		}
		rec, err := decodeJournalRecord(rest[:end])
		if err != nil {
			var fe *FrameError
			if errors.As(err, &fe) {
				return recs, off, &FormatError{Reason: fmt.Sprintf("journal record %d: %s", len(recs), fe.Reason)}
			}
			return recs, off, err
		}
		recs = append(recs, rec)
		off += int(end)
	}
	return recs, off, nil
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
	var buf bytes.Buffer
	// The frame writer only errors on a bad magic length or a failing
	// io.Writer; neither can happen writing a constant magic to a buffer.
	if err := WriteFrame(&buf, journalMagic, journalVersion, appendJournalRecord(nil, rec)); err != nil {
		panic("ckpt: framing journal record: " + err.Error())
	}
	return buf.Bytes()
}

// Append writes rec as one framed record and fsyncs before returning,
// so a record the caller believes in has survived any subsequent crash.
// The write targets the current end of file (Open positioned there);
// a short or failed write leaves a torn tail the next Open repairs —
// never a misparse. After the record is durable the "journal:<kind>"
// TestHook point fires, giving the crash harness a seam exactly between
// a batch's durability milestones.
func (j *Journal) Append(rec JournalRecord) error {
	frame := EncodeJournalRecord(rec)
	var w io.Writer = j.f
	if TestWriteWrap != nil {
		w = TestWriteWrap(w)
	}
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("ckpt: appending %s record to journal %s: %w", rec.Kind, j.path, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("ckpt: syncing journal %s: %w", j.path, err)
	}
	if TestHook != nil {
		TestHook("journal:" + rec.Kind.String())
	}
	return nil
}

// Close closes the journal file.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
