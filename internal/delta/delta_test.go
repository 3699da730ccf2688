package delta

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const goodBatch = `{"type":"trace","dst":"10.0.0.9","stop_reason":"COMPLETED","hops":[{"addr":"10.0.0.1","probe_ttl":1,"icmp_type":11},{"addr":"10.0.0.9","probe_ttl":2,"icmp_type":0}]}
{"type":"cycle-start"}
{"type":"trace","dst":"10.0.1.9","stop_reason":"COMPLETED","hops":[{"addr":"10.0.1.1","probe_ttl":1,"icmp_type":11}]}
`

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestFingerprintContentOnly(t *testing.T) {
	a := Fingerprint([]byte(goodBatch))
	if a != Fingerprint([]byte(goodBatch)) {
		t.Fatal("fingerprint not deterministic")
	}
	if a == Fingerprint([]byte(goodBatch+"\n{}")) {
		t.Fatal("different content produced the same fingerprint")
	}
}

// TestStoreLifecycle walks one batch through the full state machine
// across store reopens — the journal, not process memory, must carry
// every transition.
func TestStoreLifecycle(t *testing.T) {
	dir := t.TempDir()
	fp := Fingerprint([]byte(goodBatch))

	s := openStore(t, dir)
	if d := s.Decide("b1.jsonl", fp); d != Absorb {
		t.Fatalf("fresh batch: Decide = %v, want absorb", d)
	}
	if err := s.Intent(fp, "b1.jsonl", 2); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Crash after intent: the reopened store must demand a redo.
	s = openStore(t, dir)
	if d := s.Decide("b1.jsonl", fp); d != ResumeApply {
		t.Fatalf("after intent: Decide = %v, want resume-apply", d)
	}
	pend := s.Pending()
	if len(pend) != 1 || pend[0].Name != "b1.jsonl" || pend[0].Traces != 2 {
		t.Fatalf("Pending = %+v", pend)
	}
	if err := s.MarkApplied(fp, "b1.jsonl", 0xfeed); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Re-delivery after apply: idempotent skip under the same name,
	// poison under any other.
	s = openStore(t, dir)
	if d := s.Decide("b1.jsonl", fp); d != Skip {
		t.Fatalf("applied batch re-delivered: Decide = %v, want skip", d)
	}
	if d := s.Decide("sneaky.jsonl", fp); d != Poison {
		t.Fatalf("applied content under new name: Decide = %v, want poison", d)
	}
	app := s.Applied()
	if len(app) != 1 || app[0].AnnDigest != 0xfeed {
		t.Fatalf("Applied = %+v", app)
	}
	if len(s.Pending()) != 0 {
		t.Fatalf("Pending after apply = %+v", s.Pending())
	}
	st, ok := s.State(fp)
	if !ok || st.Status != StatusApplied {
		t.Fatalf("State = %+v, %v", st, ok)
	}
}

func TestStoreQuarantine(t *testing.T) {
	dir := t.TempDir()
	data := []byte("not json at all\n")
	fp := Fingerprint(data)
	ref := &Refusal{Class: RefusalDecode, Batch: "bad.jsonl", FP: fp, Err: errors.New("line 1: bad")}

	s := openStore(t, dir)
	if err := s.Quarantine(ref, data); err != nil {
		t.Fatal(err)
	}

	// The quarantine directory holds the bytes and a reason file.
	got, err := os.ReadFile(filepath.Join(dir, QuarantineDir, s.quarantineBase(fp)+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatalf("quarantined bytes differ: %q", got)
	}
	reason, err := os.ReadFile(filepath.Join(dir, QuarantineDir, s.quarantineBase(fp)+".reason"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"bad.jsonl", "decode", "line 1: bad"} {
		if !strings.Contains(string(reason), want) {
			t.Errorf("reason file missing %q:\n%s", want, reason)
		}
	}
	s.Close()

	// The verdict survives a restart; same name skips, replay poisons.
	s = openStore(t, dir)
	if d := s.Decide("bad.jsonl", fp); d != SkipQuarantined {
		t.Fatalf("quarantined batch re-delivered: Decide = %v, want skip-quarantined", d)
	}
	if d := s.Decide("rename.jsonl", fp); d != Poison {
		t.Fatalf("quarantined content under new name: Decide = %v, want poison", d)
	}
	q := s.Quarantined()
	if len(q) != 1 || q[0].Reason != "decode" {
		t.Fatalf("Quarantined = %+v", q)
	}
}

// TestStorePendingUnderDifferentName: content journaled as pending and
// re-offered under another name is a replay, not a resume.
func TestStorePendingUnderDifferentName(t *testing.T) {
	s := openStore(t, t.TempDir())
	fp := Fingerprint([]byte(goodBatch))
	if err := s.Intent(fp, "b1.jsonl", 2); err != nil {
		t.Fatal(err)
	}
	if d := s.Decide("b2.jsonl", fp); d != Poison {
		t.Fatalf("pending content under new name: Decide = %v, want poison", d)
	}
}

func TestSaveAbsorbed(t *testing.T) {
	s := openStore(t, t.TempDir())
	fp := Fingerprint([]byte(goodBatch))
	if err := s.SaveAbsorbed(fp, []byte(goodBatch)); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(s.AbsorbedPath(fp))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != goodBatch {
		t.Fatal("absorbed copy differs from batch bytes")
	}
}

func TestValidateBatch(t *testing.T) {
	fp := uint64(7)
	traces, stats, err := ValidateBatch("b.jsonl", fp, []byte(goodBatch), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 || stats.Traces != 2 || stats.Skipped != 1 {
		t.Fatalf("traces=%d stats=%+v", len(traces), stats)
	}

	var ref *Refusal
	_, _, err = ValidateBatch("b.jsonl", fp, []byte("garbage\n"), 0)
	if !errors.As(err, &ref) || ref.Class != RefusalDecode || ref.FP != fp {
		t.Fatalf("garbage batch: %v", err)
	}
	_, _, err = ValidateBatch("b.jsonl", fp, nil, 0)
	if !errors.As(err, &ref) || ref.Class != RefusalDecode {
		t.Fatalf("empty batch: %v", err)
	}

	// One bad line inside a one-line budget passes; two blow it.
	mixed := goodBatch + "garbage\n"
	traces, stats, err = ValidateBatch("b.jsonl", fp, []byte(mixed), 1)
	if err != nil || len(traces) != 2 || stats.BadRecords != 1 {
		t.Fatalf("budgeted batch: traces=%d stats=%+v err=%v", len(traces), stats, err)
	}
	_, _, err = ValidateBatch("b.jsonl", fp, []byte(mixed+"more garbage\n"), 1)
	if !errors.As(err, &ref) || ref.Class != RefusalBudget {
		t.Fatalf("budget blowout: %v", err)
	}
}

// TestValidateBatchTallies: BatchStats counts what accepted records
// contributed. A record rejected inside the error budget adds to
// BadRecords only, even when the decoder had already dropped one of its
// hops before reaching the part that is malformed; whitespace around a
// record and whitespace-only lines are forgiven as they always were.
func TestValidateBatchTallies(t *testing.T) {
	const (
		dropsOne  = `{"dst":"10.0.2.9","hops":[{"addr":"10.0.2.1","probe_ttl":1,"icmp_type":12},{"addr":"10.0.2.9","probe_ttl":2,"icmp_type":0}]}` + "\n"
		badAfter  = `{"dst":"10.0.3.9","hops":[{"addr":"10.0.3.1","probe_ttl":1,"icmp_type":12},{"addr":"not-an-address","probe_ttl":2,"icmp_type":11}]}` + "\n"
		badBefore = `{"dst":"nowhere","hops":[{"addr":"10.0.3.1","probe_ttl":1,"icmp_type":12}]}` + "\n"
	)
	for _, c := range []struct {
		name   string
		data   string
		maxBad int
		want   BatchStats
	}{
		{"clean", goodBatch, 0, BatchStats{Traces: 2, Skipped: 1}},
		{"dropped hop of an accepted record", goodBatch + dropsOne, 0, BatchStats{Traces: 3, Skipped: 1, DroppedHops: 1}},
		{"dropped hop of a rejected record", goodBatch + badAfter, 1, BatchStats{Traces: 2, Skipped: 1, BadRecords: 1}},
		{"rejected before its hops", goodBatch + badBefore, 1, BatchStats{Traces: 2, Skipped: 1, BadRecords: 1}},
		{"rejected between accepted drops", dropsOne + badAfter + dropsOne, 1, BatchStats{Traces: 2, BadRecords: 1, DroppedHops: 2}},
		{"stray whitespace", "  \t\n\v" + dropsOne[:len(dropsOne)-1] + " \u00a0\r\n \n", 0, BatchStats{Traces: 1, DroppedHops: 1}},
	} {
		traces, stats, err := ValidateBatch("b.jsonl", 7, []byte(c.data), c.maxBad)
		if err != nil || stats != c.want || len(traces) != c.want.Traces {
			t.Errorf("%s: traces=%d stats=%+v err=%v, want %+v", c.name, len(traces), stats, err, c.want)
		}
	}
}
