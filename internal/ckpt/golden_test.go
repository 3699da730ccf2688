package ckpt

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
)

// The byte layouts the build before the shared Reader wrote, written
// out: the files that build left on disk must load, and the encoders
// must still write exactly them. goldenV2 is sampleState() as a
// version-2 checkpoint (no history, no lineage); goldenV3 is
// goldenState() in the current version; goldenJournal is
// sampleJournalRecords() as four appended records. goldenIterLog is
// sampleIterRecords() as three appended records, written out when the
// refinement log was introduced.
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
	goldenJournal = "424d49544a524e4c01180000000111110000000000000d62617463682d612e6a736f6e6c2ab83df6e6424d49544a524e" +
		"4c011f0000000211110000000000000d62617463682d612e6a736f6e6ccefaedfe00000000778d5988424d49544a524e" +
		"4c01180000000122220000000000000d62617463682d622e6a736f6e6c0705a0c440424d49544a524e4c013800000003" +
		"22220000000000000d62617463682d622e6a736f6e6c206465636f64653a2039206f662037207265636f726473206d61" +
		"6c666f726d6564b79837bb"
	goldenIterLog = "424d4954495445520137000000bd8235fdbce359a908000008100000000000000101c801000209697465726174696f6e" +
		"100f726f75746572735f6368616e67656402010814cd25bd424d495449544552013d000000bd8235fdbce359a9090000" +
		"091000000000000001030702000102ffffffff0f0209697465726174696f6e120f726f75746572735f6368616e676564" +
		"020083f10e58424d4954495445520136000000bd8235fdbce359a90a01020a1000000000000001006400020969746572" +
		"6174696f6e140f726f75746572735f6368616e67656402010a15c1ba43"
)

// goldenState is sampleState() with every version-3 section filled in.
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

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGoldenCheckpoint(t *testing.T) {
	v3 := unhex(t, goldenV3)
	if got := encode(t, goldenState()); !bytes.Equal(got, v3) {
		t.Errorf("Encode no longer writes the recorded version-3 bytes:\n got %x\nwant %x", got, v3)
	}
	st, err := Decode(bytes.NewReader(v3))
	if err != nil {
		t.Fatalf("Decode refuses the recorded version-3 checkpoint: %v", err)
	}
	stateEqual(t, st, goldenState())
	if again := encode(t, st); !bytes.Equal(again, v3) {
		t.Errorf("the recorded version-3 checkpoint re-encodes differently:\n got %x\nwant %x", again, v3)
	}

	v2 := unhex(t, goldenV2)
	if got := legacyV2Image(t, sampleState()); !bytes.Equal(got, v2) {
		t.Errorf("the version-2 prefix of the payload moved:\n got %x\nwant %x", got, v2)
	}
	st, err = Decode(bytes.NewReader(v2))
	if err != nil {
		t.Fatalf("Decode refuses the recorded version-2 checkpoint: %v", err)
	}
	stateEqual(t, st, sampleState())
	if st.FormatVersion != legacyVersion || st.History != nil || st.Lineage != nil {
		t.Errorf("version-2 checkpoint decoded as version %d with history %v, lineage %v", st.FormatVersion, st.History, st.Lineage)
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

func TestGoldenIterLog(t *testing.T) {
	want := unhex(t, goldenIterLog)
	if got := logImage(sampleIterRecords()...); !bytes.Equal(got, want) {
		t.Errorf("EncodeIterRecord no longer writes the recorded bytes:\n got %x\nwant %x", got, want)
	}
	recs, consumed, err := scanLog(want, "iteration record", decodeIterRecord)
	if err != nil || consumed != len(want) {
		t.Fatalf("the recorded log: consumed %d of %d, err %v", consumed, len(want), err)
	}
	if !reflect.DeepEqual(recs, sampleIterRecords()) {
		t.Errorf("the recorded log decodes to\n%+v\nwant\n%+v", recs, sampleIterRecords())
	}
}
