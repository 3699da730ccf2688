package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// sampleState builds a representative snapshot exercising every field:
// both annotation slices, and trace rows with negative-capable int64
// values.
func sampleState() *State {
	return &State{
		OptionsFP:   0xdeadbeefcafef00d,
		InputDigest: 0x0123456789abcdef,
		GraphDigest: 0xfedcba9876543210,
		Iteration:   7,
		Converged:   true,
		CycleLength: 2,
		Routers:     []uint32{0, 100, 4294967295, 65000},
		Ifaces:      []uint32{200, 0, 300},
		Trace: []obs.Row{
			{"iteration": 1, "routers_changed": 42, "votes_cast": 900},
			{"iteration": 2, "routers_changed": 0, "delta": -5},
		},
	}
}

func encode(t *testing.T, st *State) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, st); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

func stateEqual(t *testing.T, got, want *State) {
	t.Helper()
	if got.OptionsFP != want.OptionsFP || got.InputDigest != want.InputDigest ||
		got.GraphDigest != want.GraphDigest || got.Iteration != want.Iteration ||
		got.Converged != want.Converged || got.CycleLength != want.CycleLength {
		t.Fatalf("scalar fields differ:\n got %+v\nwant %+v", got, want)
	}
	for name, pair := range map[string][2][]uint32{
		"Routers": {got.Routers, want.Routers},
		"Ifaces":  {got.Ifaces, want.Ifaces},
	} {
		g, w := pair[0], pair[1]
		if len(g) != len(w) {
			t.Fatalf("%s len = %d, want %d", name, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s[%d] = %d, want %d", name, i, g[i], w[i])
			}
		}
	}
	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("Trace len = %d, want %d", len(got.Trace), len(want.Trace))
	}
	for i, wr := range want.Trace {
		gr := got.Trace[i]
		if len(gr) != len(wr) {
			t.Fatalf("Trace[%d] has %d keys, want %d", i, len(gr), len(wr))
		}
		for k, v := range wr {
			if gr[k] != v {
				t.Fatalf("Trace[%d][%q] = %d, want %d", i, k, gr[k], v)
			}
		}
	}
}

// TestProvBlobOptional: a version-3 snapshot decodes to the same state
// whether it carries a provenance blob or none, and re-encodes as the
// current version without one.
func TestProvBlobOptional(t *testing.T) {
	want := encode(t, sampleState())
	for _, x := range []v3Extras{{}, {hasProv: true, prov: []byte{0x01, 0x02, 0x00, 0xff}}} {
		got, err := Decode(bytes.NewReader(v3Image(sampleState(), x)))
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		stateEqual(t, got, sampleState())
		if !bytes.Equal(encode(t, got), want) {
			t.Errorf("a version-3 snapshot with provenance %v re-encodes differently", x.hasProv)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := sampleState()
	data := encode(t, want)
	got, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	stateEqual(t, got, want)

	// Encoding is deterministic: a decoded state re-encodes to the same
	// bytes, which is what makes checkpoint files comparable at all.
	if again := encode(t, got); !bytes.Equal(again, data) {
		t.Error("re-encoding a decoded state changed the bytes")
	}
}

func TestEncodeEmptyState(t *testing.T) {
	got, err := Decode(bytes.NewReader(encode(t, &State{})))
	if err != nil {
		t.Fatalf("Decode of empty state: %v", err)
	}
	stateEqual(t, got, &State{})
}

// TestDataValuesAreNotCounts: an iteration number, a cycle length and a
// version-3 hash's first-sighting iteration are data — they may exceed
// the payload's length in bytes, which bounds element counts only.
func TestDataValuesAreNotCounts(t *testing.T) {
	for name, tc := range map[string]struct {
		want *State
		x    v3Extras
	}{
		"iteration, empty tables": {want: &State{Iteration: 1 << 20}},
		"cycle length and hash iteration": {
			want: &State{Iteration: 1 << 20, Converged: true, CycleLength: 1 << 19},
			x:    v3Extras{hashes: []v3Hash{{hash: 1, iter: 1 << 19}}},
		},
	} {
		t.Run(name, func(t *testing.T) {
			for _, image := range [][]byte{encode(t, tc.want), v3Image(tc.want, tc.x)} {
				got, err := Decode(bytes.NewReader(image))
				if err != nil {
					t.Fatalf("Decode refused version %d bytes: %v", image[8], err)
				}
				stateEqual(t, got, tc.want)
			}
		})
	}
}

// TestDecodeRejectsTampering drives the decoder through every
// structural corruption class; each must yield a *FormatError, never a
// silently wrong State.
func TestDecodeRejectsTampering(t *testing.T) {
	data := encode(t, sampleState())
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   string // substring of the FormatError reason
	}{
		{"empty", func(b []byte) []byte { return nil }, "too short"},
		{"short", func(b []byte) []byte { return b[:10] }, "too short"},
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, "bad magic"},
		{"stale-version", func(b []byte) []byte { b[8] = Version + 1; return b }, "unsupported format version"},
		{"truncated", func(b []byte) []byte { return b[:len(b)-9] }, "length mismatch"},
		{"trailing-bytes", func(b []byte) []byte { return append(b, 0, 0, 0) }, "length mismatch"},
		{"payload-bit-flip", func(b []byte) []byte { b[20] ^= 0x01; return b }, "checksum mismatch"},
		{"crc-bit-flip", func(b []byte) []byte { b[len(b)-1] ^= 0x80; return b }, "checksum mismatch"},
		// Beneath a valid envelope: bytes that say what Encode would say
		// in a form Encode would not choose. The iteration uvarint (7) is
		// payload byte 24, the converged flag byte 25.
		{"overlong-varint", func(b []byte) []byte {
			p := payloadOf(b)
			return reframe(t, magic, Version, append(append(p[:24:24], 0x87, 0x00), p[25:]...))
		}, "non-minimal varint"},
		{"boolean-byte-2", func(b []byte) []byte { b[13+25] = 2; return fixCRC(b) }, "is not 0 or 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated := tc.mutate(append([]byte(nil), data...))
			st, err := Decode(bytes.NewReader(mutated))
			if err == nil {
				t.Fatalf("Decode accepted corrupted input, returned %+v", st)
			}
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("error is %T (%v), want *FormatError", err, err)
			}
			if !strings.Contains(fe.Reason, tc.want) {
				t.Errorf("reason %q does not mention %q", fe.Reason, tc.want)
			}
		})
	}
}

// TestDecodeBoundsHostileCounts rebuilds a structurally valid file
// (correct magic, length, and CRC) whose payload declares an element
// count far beyond the remaining bytes; the decoder must reject it
// before allocating anything count-sized.
func TestDecodeBoundsHostileCounts(t *testing.T) {
	// For State{Iteration: 1} the payload is: three u64s (24 bytes),
	// a 1-byte iteration uvarint, the converged byte, a 1-byte cycle
	// length — so the hash-history count uvarint sits at payload offset
	// 27, file offset 13+27 (8 magic + 1 version + 4 length).
	data := encode(t, &State{Iteration: 1})
	off := 13 + 27
	data[off], data[off+1], data[off+2] = 0xff, 0xff, 0x01 // a minimal uvarint: 32767
	data = fixCRC(data)
	st, err := Decode(bytes.NewReader(data))
	if err == nil {
		t.Fatalf("Decode accepted hostile count, returned %+v", st)
	}
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("error is %T (%v), want *FormatError", err, err)
	}
	if !strings.Contains(fe.Reason, "implausible") && !strings.Contains(fe.Reason, "exceeds remaining") {
		t.Errorf("reason %q is not a bounds rejection", fe.Reason)
	}
}

// payloadOf strips the envelope (8 magic + 1 version + 4 length header,
// 4 CRC trailer) from a valid checkpoint image.
func payloadOf(data []byte) []byte { return data[13 : len(data)-4] }

// reframe wraps payload in a valid envelope.
func reframe(t *testing.T, magic string, version byte, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, magic, version, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fixCRC recomputes the trailing CRC over a mutated checkpoint image so
// tests can exercise validation layers beneath the checksum.
func fixCRC(data []byte) []byte {
	crc := crc32.ChecksumIEEE(data[:len(data)-4])
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc)
	return data
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rec := obs.New()
	want := sampleState()
	if err := Save(dir, want, rec); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	stateEqual(t, got, want)

	rep := rec.Report()
	if rep.Counters["ckpt.writes"] != 1 {
		t.Errorf("ckpt.writes = %d, want 1", rep.Counters["ckpt.writes"])
	}
	if h, ok := rep.Histograms["ckpt.write_ns"]; !ok || h.Count != 1 {
		t.Errorf("ckpt.write_ns histogram missing or empty: %+v", rep.Histograms)
	}

	// Save must tolerate a nil recorder: durability cannot depend on
	// telemetry being attached.
	if err := Save(dir, want, nil); err != nil {
		t.Fatalf("Save with nil recorder: %v", err)
	}
}

func TestSaveReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	first := sampleState()
	if err := Save(dir, first, nil); err != nil {
		t.Fatal(err)
	}
	second := sampleState()
	second.Iteration = 8
	second.Converged = false
	if err := Save(dir, second, nil); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iteration != 8 || got.Converged {
		t.Errorf("Load after second Save = iter %d converged %v, want 8/false", got.Iteration, got.Converged)
	}
	// No temp litter: the directory holds exactly the checkpoint.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != FileName {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Errorf("checkpoint dir holds %v, want exactly [%s]", names, FileName)
	}
}

func TestLoadMissingReportsErrNoCheckpoint(t *testing.T) {
	_, err := Load(t.TempDir())
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Load on empty dir = %v, want ErrNoCheckpoint", err)
	}
}

func TestLoadCorruptReportsFormatError(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, FileName), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(dir)
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("Load on garbage file = %v, want *FormatError", err)
	}
}

func TestAtomicWriteCleansUpOnFillError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	boom := errors.New("boom")
	err := AtomicWrite(path, func(w io.Writer) error {
		if _, werr := io.WriteString(w, "partial"); werr != nil {
			return werr
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("AtomicWrite = %v, want the fill error", err)
	}
	if _, serr := os.Stat(path); !errors.Is(serr, os.ErrNotExist) {
		t.Error("destination exists after a failed fill; atomicity broken")
	}
	ents, rerr := os.ReadDir(dir)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(ents) != 0 {
		t.Errorf("temp file left behind after failed fill: %v", ents)
	}
}

func TestAtomicWritePreservesOldFileOnFillError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := AtomicWrite(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "version 1\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	err := AtomicWrite(path, func(w io.Writer) error { return errors.New("mid-write crash") })
	if err == nil {
		t.Fatal("second AtomicWrite did not propagate the fill error")
	}
	data, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if string(data) != "version 1\n" {
		t.Errorf("old file content clobbered by failed write: %q", data)
	}
}

func TestAtomicWriteFiresPreRenameHook(t *testing.T) {
	dir := t.TempDir()
	var points []string
	TestHook = func(p string) { points = append(points, p) }
	defer func() { TestHook = nil }()
	if err := AtomicWrite(filepath.Join(dir, "hooked.txt"), func(w io.Writer) error {
		_, err := io.WriteString(w, "x")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 || points[0] != "pre-rename:hooked.txt" {
		t.Errorf("hook points = %v, want [pre-rename:hooked.txt]", points)
	}
}

func TestSaveFiresCheckpointHook(t *testing.T) {
	dir := t.TempDir()
	var points []string
	TestHook = func(p string) { points = append(points, p) }
	defer func() { TestHook = nil }()
	st := sampleState()
	if err := Save(dir, st, nil); err != nil {
		t.Fatal(err)
	}
	want := []string{"pre-rename:" + FileName, "checkpoint:7"}
	if len(points) != 2 || points[0] != want[0] || points[1] != want[1] {
		t.Errorf("hook points = %v, want %v", points, want)
	}
}

func TestSaveUnwritableDirFails(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root; directory permissions are not enforced")
	}
	dir := t.TempDir()
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	if err := Save(dir, sampleState(), nil); err == nil {
		t.Fatal("Save into read-only directory succeeded")
	}
}

func TestMismatchErrorMessage(t *testing.T) {
	e := &MismatchError{Field: "inputs", Want: 0xabc, Got: 0xdef}
	msg := e.Error()
	for _, want := range []string{"inputs", "0xabc", "0xdef", "refusing to resume"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error message %q missing %q", msg, want)
		}
	}
}
