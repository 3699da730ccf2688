package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// This file is the one implementation of the repo's artifact framing
// discipline. Every serialized artifact — refinement checkpoints
// ("BMITCKPT"), intake-journal records ("BMITJRNL"), provenance
// artifacts ("BMITPROV"), serving snapshots ("BMITSRVE") — shares the
// same envelope:
//
//	magic[8] version[1] payloadLen[u32le] payload crc32[u32le]
//
// with the IEEE CRC covering everything before it. Centralizing the
// envelope means a torn, truncated, bit-rotted, or wrong-format file is
// detected by one audited code path, and a new artifact kind inherits
// the full validation discipline by construction instead of
// re-implementing it. The payload inside the envelope is read the same
// way for all of them: reader.go.

// FrameError reports a file that failed validation on the wire: in the
// envelope a wrong magic or version, a length prefix that disagrees
// with the file size, or a failed CRC; in the payload any violation a
// Reader latches. Kind names the artifact being read so the message
// tells the operator what the file was supposed to be. Each format's
// Decode turns it into that package's own typed refusal.
type FrameError struct {
	// Kind is the human name of the artifact ("bdrmapIT checkpoint",
	// "bdrmapIT serving snapshot", ...).
	Kind string
	// Reason describes the structural violation.
	Reason string
}

func (e *FrameError) Error() string {
	return fmt.Sprintf("invalid %s: %s", e.Kind, e.Reason)
}

// WriteFrame writes one framed artifact to w: the 8-byte magic, the
// version byte, the little-endian payload length, the payload, and the
// trailing IEEE CRC over everything before it. Writing is a pure
// function of (magic, version, payload), so re-framing identical
// payload bytes is byte-identical — the property that makes artifact
// comparison a plain byte comparison.
func WriteFrame(w io.Writer, magic string, version byte, payload []byte) error {
	if len(magic) != 8 {
		return fmt.Errorf("ckpt: frame magic must be 8 bytes, got %q", magic)
	}
	head := make([]byte, 0, len(magic)+1+4)
	head = append(head, magic...)
	head = append(head, version)
	head = binary.LittleEndian.AppendUint32(head, uint32(len(payload)))
	crc := crc32.ChecksumIEEE(head)
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	if _, err := w.Write(head); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	_, err := w.Write(tail[:])
	return err
}

// frameBytes is WriteFrame into memory, for the records of the append
// logs. The frame writer only errors on a bad magic length or a failing
// io.Writer; neither can happen writing a constant magic to a buffer.
func frameBytes(magic string, version byte, payload []byte) []byte {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, magic, version, payload); err != nil {
		panic("ckpt: framing a log record: " + err.Error())
	}
	return buf.Bytes()
}

// ReadFrame validates data's envelope against the expected magic and
// version and returns the payload bytes (aliasing data, no copy). Any
// structural violation returns a *FrameError carrying kind; ReadFrame
// never panics on corrupt input.
func ReadFrame(data []byte, magic string, version byte, kind string) ([]byte, error) {
	payload, _, err := ReadFrameRange(data, magic, version, version, kind)
	return payload, err
}

// ReadFrameRange is ReadFrame for formats that stay readable across
// revisions: it accepts any version in [minVersion, maxVersion] and
// returns which one the file carries, so the caller can branch its
// payload decoding. Single-version formats keep using ReadFrame; the
// checkpoint reader uses the range form to load version-3 snapshots
// alongside current ones.
func ReadFrameRange(data []byte, magic string, minVersion, maxVersion byte, kind string) ([]byte, byte, error) {
	fail := func(reason string) ([]byte, byte, error) {
		return nil, 0, &FrameError{Kind: kind, Reason: reason}
	}
	headLen := len(magic) + 1 + 4
	if len(data) < headLen+4 {
		return fail(fmt.Sprintf("file too short (%d bytes)", len(data)))
	}
	if string(data[:len(magic)]) != magic {
		return fail(fmt.Sprintf("bad magic (not a %s)", kind))
	}
	version := data[len(magic)]
	if version < minVersion || version > maxVersion {
		if minVersion == maxVersion {
			return fail(fmt.Sprintf("unsupported format version %d (this build reads version %d)", version, minVersion))
		}
		return fail(fmt.Sprintf("unsupported format version %d (this build reads versions %d through %d)", version, minVersion, maxVersion))
	}
	plen := binary.LittleEndian.Uint32(data[len(magic)+1:])
	if uint64(len(data)) != uint64(headLen)+uint64(plen)+4 {
		return fail(fmt.Sprintf("length mismatch: header declares %d payload bytes, file holds %d", plen, len(data)-headLen-4))
	}
	body := data[:len(data)-4]
	wantCRC := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != wantCRC {
		return fail(fmt.Sprintf("checksum mismatch (stored %#x, computed %#x)", wantCRC, got))
	}
	return data[headLen : len(data)-4], version, nil
}

// ReadFrameFile reads path fully and validates its envelope, returning
// the payload. Open and read failures are returned as wrapped I/O
// errors; structural violations as a *FrameError.
func ReadFrameFile(path, magic string, version byte, kind string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading %s %s: %w", kind, path, err)
	}
	return ReadFrame(data, magic, version, kind)
}

// Fingerprint is the repo's content fingerprint: FNV-64a over data. A
// batch's identity in the journal and lineage, a serving snapshot's
// generation identity and the annotations digest are all this value.
func Fingerprint(data []byte) uint64 {
	return fnv64a(fnvOffset, data)
}

// Fingerprinter is Fingerprint over a stream: its Sum64 is the
// Fingerprint of everything written to it so far. The input digest, the
// options and graph digests and the refinement loop's state hash are
// this value.
type Fingerprinter struct{ h uint64 }

// NewFingerprinter returns a Fingerprinter that has seen nothing.
func NewFingerprinter() *Fingerprinter { return &Fingerprinter{h: fnvOffset} }

// Write folds p in; it never fails.
func (f *Fingerprinter) Write(p []byte) (int, error) {
	f.h = fnv64a(f.h, p)
	return len(p), nil
}

// Sum64 is the Fingerprint of what was written.
func (f *Fingerprinter) Sum64() uint64 { return f.h }

const fnvOffset = 14695981039346656037 // FNV-64 offset basis

func fnv64a(h uint64, data []byte) uint64 {
	for _, c := range data {
		h = (h ^ uint64(c)) * 1099511628211 // FNV-64 prime
	}
	return h
}
