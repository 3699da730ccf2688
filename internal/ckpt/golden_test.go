package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// The byte layouts earlier builds wrote, written out: the files they
// left on disk must load (or be refused) as recorded, and the encoders
// must still write the current ones. goldenV2 is sampleState() as a
// version-2 checkpoint (no history, no lineage), which Decode refuses;
// goldenV3 is goldenState() with goldenV3Extras as the version-3
// checkpoint Decode still reads; goldenV4 is goldenState() in the
// current version. goldenJournal is sampleJournalRecords() as four
// appended records. goldenIterLog is three records of the refinement
// log earlier builds wrote beside refine.ckpt, which Load never reads.
const (
	goldenV2 = "424d4954434b5054029d0000000df0fecaefbeaddeefcdab89674523011032547698badcfe070102030b000000000000" +
		"0001160000000000000002210000000000000005040064ffffffff0fe8fb0303c80100ac02020309697465726174696f" +
		"6e020f726f75746572735f6368616e676564540a766f7465735f63617374880e030564656c7461090969746572617469" +
		"6f6e040f726f75746572735f6368616e676564000104010200ff83b4a152"
	goldenV3 = "424d4954434b505403e30000000df0fecaefbeaddeefcdab89674523011032547698badcfe030102030b000000000000" +
		"0001160000000000000002210000000000000005040064ffffffff0fe8fb0303c80100ac02020309697465726174696f" +
		"6e020f726f75746572735f6368616e676564540a766f7465735f63617374880e030564656c7461090969746572617469" +
		"6f6e040f726f75746572735f6368616e676564000104010200ff0303006405e8fb03faffffff0f010102ac0200000002" +
		"0001010202adde0000000000001662617463682d323032362d30382d30312e6a736f6e6ce05defbe0000000000000000" +
		"a19a95a9"
	goldenV4 = "424d4954434b505404c10000000df0fecaefbeaddeefcdab89674523011032547698badcfe030102040064ffffffff0f" +
		"e8fb0303c80100ac02020309697465726174696f6e020f726f75746572735f6368616e676564540a766f7465735f6361" +
		"7374880e030564656c74610909697465726174696f6e040f726f75746572735f6368616e676564000303006405e8fb03" +
		"faffffff0f010102ac02000000020001010202adde0000000000001662617463682d323032362d30382d30312e6a736f" +
		"6e6ce05defbe000000000000000033bc0162"
	goldenJournal = "424d49544a524e4c01180000000111110000000000000d62617463682d612e6a736f6e6c2ab83df6e6424d49544a524e" +
		"4c011f0000000211110000000000000d62617463682d612e6a736f6e6ccefaedfe00000000778d5988424d49544a524e" +
		"4c01180000000122220000000000000d62617463682d622e6a736f6e6c0705a0c440424d49544a524e4c013800000003" +
		"22220000000000000d62617463682d622e6a736f6e6c206465636f64653a2039206f662037207265636f726473206d61" +
		"6c666f726d6564b79837bb"
	goldenIterLog = "424d495449544552022d000000ced16ba233cf382f0800000101c801000209697465726174696f6e100f726f75746572" +
		"735f6368616e67656402d0a32c2d424d4954495445520234000000ced16ba233cf382f09000001030702000102ffffff" +
		"ff0f0209697465726174696f6e120f726f75746572735f6368616e6765640242bc003c424d495449544552022c000000" +
		"ced16ba233cf382f0a0102010064000209697465726174696f6e140f726f75746572735f6368616e676564024b2769a0"
)

// v3Hash is one cycle-hash history entry of a version-3 snapshot.
type v3Hash struct {
	hash uint64
	iter int
}

// v3Extras are the fields a version-3 snapshot carries beyond State.
type v3Extras struct {
	hashes  []v3Hash
	hasProv bool
	prov    []byte
}

// goldenV3Extras are the version-3 fields goldenV3 was recorded with.
var goldenV3Extras = v3Extras{
	hashes:  []v3Hash{{11, 1}, {22, 2}, {33, 5}},
	hasProv: true,
	prov:    []byte{0x01, 0x02, 0x00, 0xff},
}

// v3Image is st with x as a version-3 file: the cycle hashes ahead of
// the annotations, the provenance flag and blob behind the trace.
func v3Image(st *State, x v3Extras) []byte {
	p := binary.LittleEndian.AppendUint64(nil, st.OptionsFP)
	p = binary.LittleEndian.AppendUint64(p, st.InputDigest)
	p = binary.LittleEndian.AppendUint64(p, st.GraphDigest)
	p = binary.AppendUvarint(p, uint64(st.Iteration))
	p = AppendBool(p, st.Converged)
	p = binary.AppendUvarint(p, uint64(st.CycleLength))
	p = binary.AppendUvarint(p, uint64(len(x.hashes)))
	for _, h := range x.hashes {
		p = binary.LittleEndian.AppendUint64(p, h.hash)
		p = binary.AppendUvarint(p, uint64(h.iter))
	}
	for _, anns := range [][]uint32{st.Routers, st.Ifaces} {
		p = binary.AppendUvarint(p, uint64(len(anns)))
		for _, a := range anns {
			p = binary.AppendUvarint(p, uint64(a))
		}
	}
	p = binary.AppendUvarint(p, uint64(len(st.Trace)))
	for _, row := range st.Trace {
		p = appendRow(p, row)
	}
	p = AppendBool(p, x.hasProv)
	p = binary.AppendUvarint(p, uint64(len(x.prov)))
	p = append(p, x.prov...)
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
	return frameBytes(magic, Version-1, p)
}

// goldenState is sampleState() with every history section filled in.
func goldenState() *State {
	st := sampleState()
	st.Iteration = 3
	st.History = []IterDelta{
		{
			Routers: []AnnChange{{Idx: 0, Ann: 100}, {Idx: 5, Ann: 65000}, {Idx: 4294967295, Ann: 1}},
			Ifaces:  []AnnChange{{Idx: 2, Ann: 300}},
		},
		{},
		{Ifaces: []AnnChange{{Idx: 0, Ann: 1}, {Idx: 1, Ann: 2}}},
	}
	st.Lineage = []BatchInfo{
		{FP: 0xdead, Name: "batch-2026-08-01.jsonl", Traces: 12000},
		{FP: 0xbeef},
	}
	return st
}

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGoldenCheckpoint(t *testing.T) {
	v4 := unhex(t, goldenV4)
	if got := encode(t, goldenState()); !bytes.Equal(got, v4) {
		t.Errorf("Encode no longer writes the recorded version-4 bytes:\n got %x\nwant %x", got, v4)
	}
	st, err := Decode(bytes.NewReader(v4))
	if err != nil {
		t.Fatalf("Decode refuses the recorded version-4 checkpoint: %v", err)
	}
	stateEqual(t, st, goldenState())

	// The version-3 file decodes to the same state, and re-encodes as
	// version 4.
	v3 := unhex(t, goldenV3)
	if got := v3Image(goldenState(), goldenV3Extras); !bytes.Equal(got, v3) {
		t.Fatalf("v3Image no longer writes the recorded version-3 bytes:\n got %x\nwant %x", got, v3)
	}
	st, err = Decode(bytes.NewReader(v3))
	if err != nil {
		t.Fatalf("Decode refuses the recorded version-3 checkpoint: %v", err)
	}
	stateEqual(t, st, goldenState())
	if again := encode(t, st); !bytes.Equal(again, v4) {
		t.Errorf("the recorded version-3 checkpoint re-encodes differently:\n got %x\nwant %x", again, v4)
	}
}

func TestGoldenJournal(t *testing.T) {
	want := unhex(t, goldenJournal)
	var got []byte
	for _, rec := range sampleJournalRecords() {
		got = append(got, EncodeJournalRecord(rec)...)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("EncodeJournalRecord no longer writes the recorded bytes:\n got %x\nwant %x", got, want)
	}
	recs, consumed, err := DecodeJournal(want)
	if err != nil || consumed != len(want) {
		t.Fatalf("DecodeJournal on the recorded journal: consumed %d of %d, err %v", consumed, len(want), err)
	}
	journalRecordsEqual(t, recs, sampleJournalRecords())
}

// TestGoldenDirectoryLoads: a state directory as an earlier build wrote
// it — the recorded version-3 refine.ckpt, beside the refinement log
// those builds kept — is the state the snapshot holds: the log is not
// read, and Load leaves it where it is. Saved again, the state is the
// version-4 bytes.
func TestGoldenDirectoryLoads(t *testing.T) {
	dir := t.TempDir()
	log := unhex(t, goldenIterLog)
	if err := os.WriteFile(filepath.Join(dir, FileName), unhex(t, goldenV3), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "refine.log"), log, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	stateEqual(t, st, goldenState())
	if !bytes.Equal(encode(t, st), unhex(t, goldenV4)) {
		t.Error("the golden directory re-encodes differently")
	}
	if kept, err := os.ReadFile(filepath.Join(dir, "refine.log")); err != nil || !bytes.Equal(kept, log) {
		t.Errorf("Load changed the leftover refine.log (%v)", err)
	}
}
