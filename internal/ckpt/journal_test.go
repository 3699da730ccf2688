package ckpt

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultio"
)

func sampleJournalRecords() []JournalRecord {
	return []JournalRecord{
		{Kind: JournalIntent, FP: 0x1111, Name: "batch-a.jsonl", Traces: 42},
		{Kind: JournalApplied, FP: 0x1111, Name: "batch-a.jsonl", AnnDigest: 0xfeedface},
		{Kind: JournalIntent, FP: 0x2222, Name: "batch-b.jsonl", Traces: 7},
		{Kind: JournalQuarantined, FP: 0x2222, Name: "batch-b.jsonl", Reason: "decode: 9 of 7 records malformed"},
	}
}

func journalRecordsEqual(t *testing.T, got, want []JournalRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("journal holds %d records, want %d:\n got %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestJournalAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalName)
	j, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal on fresh dir: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	want := sampleJournalRecords()
	for _, rec := range want {
		if err := j.Append(rec); err != nil {
			t.Fatalf("Append(%+v): %v", rec, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal replay: %v", err)
	}
	defer j2.Close()
	journalRecordsEqual(t, recs, want)

	// Appending after a replay lands after the existing records, not
	// over them.
	extra := JournalRecord{Kind: JournalApplied, FP: 0x3333, Name: "batch-c.jsonl", AnnDigest: 5}
	if err := j2.Append(extra); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, recs, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	journalRecordsEqual(t, recs, append(want, extra))
}

// TestJournalTornTailRepair simulates a SIGKILL mid-append at every byte
// boundary of the final record: each prefix must replay the intact
// records, truncate the fragment, and leave the journal appendable.
func TestJournalTornTailRepair(t *testing.T) {
	want := sampleJournalRecords()
	var full []byte
	for _, rec := range want {
		full = append(full, EncodeJournalRecord(rec)...)
	}
	lastLen := len(EncodeJournalRecord(want[len(want)-1]))
	intact := full[:len(full)-lastLen]

	for cut := len(intact) + 1; cut < len(full); cut++ {
		path := filepath.Join(t.TempDir(), JournalName)
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j, recs, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("cut at %d: OpenJournal: %v", cut, err)
		}
		journalRecordsEqual(t, recs, want[:len(want)-1])
		// The torn bytes are gone from disk and the next append starts
		// clean on the repaired boundary.
		redo := want[len(want)-1]
		if err := j.Append(redo); err != nil {
			t.Fatalf("cut at %d: Append after repair: %v", cut, err)
		}
		j.Close()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, full) {
			t.Fatalf("cut at %d: repaired journal bytes differ from a clean append sequence", cut)
		}
	}
}

// TestJournalMidFileDamageRefused: corruption inside the file with
// intact records after it is not a torn append — OpenJournal must
// refuse rather than silently drop the later records.
func TestJournalMidFileDamageRefused(t *testing.T) {
	want := sampleJournalRecords()
	var full []byte
	for _, rec := range want {
		full = append(full, EncodeJournalRecord(rec)...)
	}
	firstLen := len(EncodeJournalRecord(want[0]))
	full[firstLen-2] ^= 0x40 // flip a CRC bit of record 0; records 1..3 stay intact

	path := filepath.Join(t.TempDir(), JournalName)
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenJournal(path)
	if err == nil {
		t.Fatal("OpenJournal repaired mid-file damage instead of refusing")
	}
	if !strings.Contains(err.Error(), "mid-file damage") {
		t.Errorf("error %q does not identify mid-file damage", err)
	}
	// Refusal must not modify the file: the operator decides what to do
	// with the evidence.
	data, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !bytes.Equal(data, full) {
		t.Error("OpenJournal mutated a journal it refused to open")
	}
}

func TestJournalRecordRejectsMalformed(t *testing.T) {
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   string
	}{
		{"unknown-kind", func(b []byte) []byte { return EncodeJournalRecord(JournalRecord{Kind: 9, FP: 1, Name: "x"}) }, "unknown journal record kind"},
		{"crc-flip", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }, "checksum mismatch"},
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, "bad magic"},
		{"wrong-version", func(b []byte) []byte { b[8] = journalVersion + 1; return b }, "unsupported format version"},
		{"truncated-header", func(b []byte) []byte { return b[:7] }, "truncated header"},
		{"length-overrun", func(b []byte) []byte { return b[:len(b)-2] }, "remain"},
		// The name-length uvarint is payload byte 9 (after kind and FP).
		{"overlong-varint", func(b []byte) []byte {
			p := payloadOf(b)
			return reframe(t, journalMagic, journalVersion, append(append(p[:9:9], p[9]|0x80, 0x00), p[10:]...))
		}, "non-minimal varint"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := EncodeJournalRecord(JournalRecord{Kind: JournalIntent, FP: 7, Name: "b.jsonl", Traces: 3})
			data := tc.mutate(append([]byte(nil), base...))
			recs, consumed, err := DecodeJournal(data)
			if err == nil {
				t.Fatalf("DecodeJournal accepted %s, returned %+v", tc.name, recs)
			}
			if consumed != 0 || len(recs) != 0 {
				t.Fatalf("malformed sole record yielded consumed=%d records=%d", consumed, len(recs))
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestAtomicWriteENOSPCLeavesNoTornFile drives AtomicWrite through the
// write-fault matrix: a full-disk error at any point — including a
// short write the kernel partially committed — must surface the error,
// keep the previous published content intact, and leave no temp litter.
func TestAtomicWriteENOSPCLeavesNoTornFile(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789abcdef"), 512) // beyond one bufio flush
	for _, mode := range []struct {
		name string
		wrap func(io.Writer, int64) io.Writer
	}{
		{"enospc", faultio.ErrWriterAt},
		{"short-write", faultio.ShortWriter},
	} {
		for _, cut := range []int64{0, 1, 17, 4096, int64(len(payload)) - 1} {
			t.Run(mode.name+"@"+string(rune('0'+cut%10)), func(t *testing.T) {
				dir := t.TempDir()
				path := filepath.Join(dir, "out.bin")
				if err := AtomicWrite(path, func(w io.Writer) error {
					_, err := w.Write([]byte("previous good content"))
					return err
				}); err != nil {
					t.Fatal(err)
				}
				TestWriteWrap = func(w io.Writer) io.Writer { return mode.wrap(w, cut) }
				defer func() { TestWriteWrap = nil }()
				err := AtomicWrite(path, func(w io.Writer) error {
					_, werr := w.Write(payload)
					return werr
				})
				if !errors.Is(err, faultio.ErrNoSpace) {
					t.Fatalf("AtomicWrite under %s at %d = %v, want ErrNoSpace", mode.name, cut, err)
				}
				data, rerr := os.ReadFile(path)
				if rerr != nil {
					t.Fatal(rerr)
				}
				if string(data) != "previous good content" {
					t.Errorf("published file torn by failed write: %q", data)
				}
				ents, rerr := os.ReadDir(dir)
				if rerr != nil {
					t.Fatal(rerr)
				}
				if len(ents) != 1 {
					names := make([]string, len(ents))
					for i, e := range ents {
						names[i] = e.Name()
					}
					t.Errorf("temp litter after failed write: %v", names)
				}
			})
		}
	}
}

// TestJournalAppendENOSPCLeavesRepairableTail: a failed or short append
// must report the error, and the journal must reopen with every
// previously durable record intact — the torn fragment repaired away.
func TestJournalAppendENOSPCLeavesRepairableTail(t *testing.T) {
	want := sampleJournalRecords()
	for _, mode := range []struct {
		name string
		wrap func(io.Writer, int64) io.Writer
	}{
		{"enospc", faultio.ErrWriterAt},
		{"short-write", faultio.ShortWriter},
	} {
		t.Run(mode.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), JournalName)
			j, _, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range want[:2] {
				if err := j.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			TestWriteWrap = func(w io.Writer) io.Writer { return mode.wrap(w, 5) }
			err = j.Append(want[2])
			TestWriteWrap = nil
			if !errors.Is(err, faultio.ErrNoSpace) {
				t.Fatalf("Append under %s = %v, want ErrNoSpace", mode.name, err)
			}
			j.Close()
			j2, recs, err := OpenJournal(path)
			if err != nil {
				t.Fatalf("reopen after failed append: %v", err)
			}
			journalRecordsEqual(t, recs, want[:2])
			// The retried append must succeed and land cleanly.
			if err := j2.Append(want[2]); err != nil {
				t.Fatalf("retry append: %v", err)
			}
			j2.Close()
			_, recs, err = OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			journalRecordsEqual(t, recs, want[:3])
		})
	}
}

func TestJournalAppendFiresHook(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalName)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var points []string
	TestHook = func(p string) { points = append(points, p) }
	defer func() { TestHook = nil }()
	for _, rec := range sampleJournalRecords() {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"journal:intent", "journal:applied", "journal:intent", "journal:quarantined"}
	if len(points) != len(want) {
		t.Fatalf("hook points = %v, want %v", points, want)
	}
	for i := range want {
		if points[i] != want[i] {
			t.Fatalf("hook points = %v, want %v", points, want)
		}
	}
}

// TestV3HistoryLineageRoundTrip pins the sections version 3 added:
// history change sets (including empty iterations and large index gaps)
// and the batch lineage survive an encode/decode cycle byte-exactly.
func TestV3HistoryLineageRoundTrip(t *testing.T) {
	want := sampleState()
	want.Iteration = 3
	want.History = []IterDelta{
		{
			Routers: []AnnChange{{Idx: 0, Ann: 100}, {Idx: 5, Ann: 65000}, {Idx: 4294967295, Ann: 1}},
			Ifaces:  []AnnChange{{Idx: 2, Ann: 300}},
		},
		{}, // a quiescent iteration: no flips at all
		{
			Ifaces: []AnnChange{{Idx: 0, Ann: 1}, {Idx: 1, Ann: 2}},
		},
	}
	want.Lineage = []BatchInfo{
		{FP: 0xdead, Name: "batch-2026-08-01.jsonl", Traces: 12000},
		{FP: 0xbeef, Name: "", Traces: 0},
	}
	data := encode(t, want)
	got, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	stateEqual(t, got, want)
	if len(got.History) != len(want.History) {
		t.Fatalf("History len = %d, want %d", len(got.History), len(want.History))
	}
	for i := range want.History {
		for name, pair := range map[string][2][]AnnChange{
			"Routers": {got.History[i].Routers, want.History[i].Routers},
			"Ifaces":  {got.History[i].Ifaces, want.History[i].Ifaces},
		} {
			g, w := pair[0], pair[1]
			if len(g) != len(w) {
				t.Fatalf("History[%d].%s len = %d, want %d", i, name, len(g), len(w))
			}
			for k := range w {
				if g[k] != w[k] {
					t.Fatalf("History[%d].%s[%d] = %+v, want %+v", i, name, k, g[k], w[k])
				}
			}
		}
	}
	if len(got.Lineage) != len(want.Lineage) {
		t.Fatalf("Lineage len = %d, want %d", len(got.Lineage), len(want.Lineage))
	}
	for i := range want.Lineage {
		if got.Lineage[i] != want.Lineage[i] {
			t.Fatalf("Lineage[%d] = %+v, want %+v", i, got.Lineage[i], want.Lineage[i])
		}
	}
	if again := encode(t, got); !bytes.Equal(again, data) {
		t.Error("re-encoding a decoded v3 state changed the bytes")
	}
	if err := got.RequireHistory(); err != nil {
		t.Errorf("RequireHistory on a complete v3 snapshot: %v", err)
	}
}

// TestLegacyV2Migration pins the end of the version-2 path: a version-2
// snapshot, which carries no history to replay, is refused at the frame
// with a *FormatError naming its version — the recorded file, and a
// current payload framed as version 2 alike.
func TestLegacyV2Migration(t *testing.T) {
	for name, image := range map[string][]byte{
		"recorded": unhex(t, goldenV2),
		"reframed": reframe(t, magic, 2, payloadOf(encode(t, sampleState()))),
	} {
		st, err := Decode(bytes.NewReader(image))
		var fe *FormatError
		if !errors.As(err, &fe) || !strings.Contains(fe.Reason, "unsupported format version 2") {
			t.Errorf("%s: Decode of a version-2 snapshot = %+v, %v; want a *FormatError naming version 2", name, st, err)
		}
	}
}

// TestIncompleteHistoryRefused: a snapshot whose history is shorter
// than its iteration count decodes, but RequireHistory refuses it.
func TestIncompleteHistoryRefused(t *testing.T) {
	st := sampleState()
	st.Iteration = 7
	st.History = []IterDelta{{}, {}} // 2 of 7
	data := encode(t, st)
	got, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	err = got.RequireHistory()
	var he *HistoryError
	if !errors.As(err, &he) {
		t.Fatalf("RequireHistory = %v, want *HistoryError", err)
	}
	if !strings.Contains(he.Error(), "2 of 7") {
		t.Errorf("HistoryError %q does not state coverage", he.Error())
	}
}

// FuzzJournalDecode drives the journal scanner with arbitrary bytes,
// seeded with a valid multi-record journal and the faultio corruption
// matrix over it — the torn tails, garbage windows, and truncations a
// killed process actually leaves.
//
// Invariants: DecodeJournal never panics; consumed never exceeds the
// input; accepted records re-encode into a journal image that decodes
// to the same records (the format is unambiguous for everything it
// accepts).
func FuzzJournalDecode(f *testing.F) {
	var valid []byte
	for _, rec := range sampleJournalRecords() {
		valid = append(valid, EncodeJournalRecord(rec)...)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(journalMagic))
	for _, c := range faultio.Matrix(int64(len(valid)), 0x7a31) {
		data, err := io.ReadAll(c.Wrap(bytes.NewReader(valid)))
		if err != nil {
			continue
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, consumed, _ := DecodeJournal(data)
		if consumed < 0 || consumed > len(data) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(data))
		}
		var again []byte
		for _, rec := range recs {
			again = append(again, EncodeJournalRecord(rec)...)
		}
		recs2, consumed2, err := DecodeJournal(again)
		if err != nil || consumed2 != len(again) {
			t.Fatalf("re-encoded journal failed to decode: %v (consumed %d of %d)", err, consumed2, len(again))
		}
		if len(recs2) != len(recs) {
			t.Fatalf("re-decode yielded %d records, want %d", len(recs2), len(recs))
		}
		for i := range recs {
			if recs[i] != recs2[i] {
				t.Fatalf("record %d changed across re-encode: %+v vs %+v", i, recs[i], recs2[i])
			}
		}
	})
}

// TestAppendAfterFailedAppendIsRefused: a short or failed write leaves
// torn bytes at the end of the journal, and an append behind them would
// be a valid record after garbage — what the next open refuses as
// mid-file damage. So the handle stays failed, and the file still reads
// as the records it had.
func TestAppendAfterFailedAppendIsRefused(t *testing.T) {
	jrecs := sampleJournalRecords()
	for _, mode := range []struct {
		name string
		wrap func(io.Writer, int64) io.Writer
	}{
		{"enospc", faultio.ErrWriterAt},
		{"short-write", faultio.ShortWriter},
	} {
		t.Run("journal/"+mode.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), JournalName)
			j, _, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			if err := j.Append(jrecs[0]); err != nil {
				t.Fatal(err)
			}
			TestWriteWrap = func(w io.Writer) io.Writer { return mode.wrap(w, 5) }
			err = j.Append(jrecs[1])
			TestWriteWrap = nil
			if !errors.Is(err, faultio.ErrNoSpace) {
				t.Fatalf("Append under %s = %v, want ErrNoSpace", mode.name, err)
			}
			if err := j.Append(jrecs[2]); !errors.Is(err, faultio.ErrNoSpace) {
				t.Fatalf("Append after a failed append = %v, want the first failure", err)
			}
			j2, recs, err := OpenJournal(path)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			j2.Close()
			journalRecordsEqual(t, recs, jrecs[:1])
		})
	}
}
