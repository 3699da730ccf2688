package ckpt

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/faultio"
	"repro/internal/obs"
)

// nextRecord is the record that takes st one iteration on: router idx
// flips to ann, under st's run id.
func nextRecord(st *State, iter int, idx, ann uint32) IterRecord {
	return IterRecord{
		RunID: st.RunID(), Iteration: iter,
		Delta: IterDelta{Routers: []AnnChange{{Idx: idx, Ann: ann}}},
		Row:   obs.Row{"iteration": int64(iter), "routers_changed": 1},
	}
}

// sampleIterRecords are sampleState()'s iterations 8 to 10: a plain one,
// one with both change sets, and the one that converges.
func sampleIterRecords() []IterRecord {
	st := sampleState()
	st.Converged, st.CycleLength = false, 0
	r9 := nextRecord(st, 9, 3, 7)
	r9.Delta.Ifaces = []AnnChange{{Idx: 0, Ann: 1}, {Idx: 2, Ann: 4294967295}}
	r10 := nextRecord(st, 10, 0, 100)
	r10.Converged, r10.CycleLength = true, 2
	return []IterRecord{nextRecord(st, 8, 1, 200), r9, r10}
}

func logImage(recs ...IterRecord) []byte {
	var out []byte
	for i := range recs {
		out = append(out, EncodeIterRecord(&recs[i])...)
	}
	return out
}

// TestLoadFoldsTheLog is the table of what Load does with a log: which
// records it folds onto the snapshot and which it leaves out.
func TestLoadFoldsTheLog(t *testing.T) {
	base := func() *State {
		st := goldenState() // iteration 3
		st.Converged, st.CycleLength = false, 0
		return st
	}
	st := base()
	r4, r5, r6 := nextRecord(st, 4, 1, 41), nextRecord(st, 5, 1, 51), nextRecord(st, 6, 2, 62)
	other := r4
	other.RunID++
	other.Delta = IterDelta{Routers: []AnnChange{{Idx: 0, Ann: 999}}}
	behind := nextRecord(st, 3, 0, 999)
	outside := nextRecord(st, 4, uint32(len(st.Routers)), 1)
	torn := logImage(r4, r5)
	torn = torn[:len(torn)-7]
	rotted := logImage(r4, r5, r6)
	rotted[len(logImage(r4))+20] ^= 0x10

	for _, tc := range []struct {
		name     string
		log      []byte // nil: no log file
		wantIter int
		router1  uint32
		wantErr  bool
	}{
		{"missing log", nil, 3, 100, false},
		{"empty log", []byte{}, 3, 100, false},
		{"next iterations fold", logImage(r4, r5, r6), 6, 51, false},
		{"another run's records are left out", logImage(other, r4, other, r5), 5, 51, false},
		{"records at or behind the base are left out", logImage(behind, r4), 4, 41, false},
		{"a gap ends the fold", logImage(r4, r6), 4, 41, false},
		{"nothing follows the base", logImage(r5, r6), 3, 100, false},
		{"a torn tail is not there yet", torn, 4, 41, false},
		{"what follows a damaged record is not read", rotted, 4, 41, false},
		{"garbage", []byte("not a log at all"), 3, 100, false},
		{"an index outside the state is a format error", logImage(outside), 0, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := Save(dir, base(), nil); err != nil {
				t.Fatal(err)
			}
			if tc.log != nil {
				if err := os.WriteFile(filepath.Join(dir, LogName), tc.log, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			got, err := Load(dir)
			if tc.wantErr {
				var fe *FormatError
				if !errors.As(err, &fe) {
					t.Fatalf("Load = %v, want a *FormatError", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			n := tc.wantIter - 3
			if got.Iteration != tc.wantIter || got.FromLog != n || got.Routers[1] != tc.router1 {
				t.Fatalf("iteration %d (%d from the log), router 1 = %d; want %d (%d), %d",
					got.Iteration, got.FromLog, got.Routers[1], tc.wantIter, n, tc.router1)
			}
			if got.Routers[0] == 999 {
				t.Error("a record of another run was applied")
			}
			if len(got.History) != tc.wantIter || len(got.Trace) != len(base().Trace)+n {
				t.Errorf("history %d, trace %d after %d folded records", len(got.History), len(got.Trace), n)
			}
			// Folding by hand is what Load did.
			want := base()
			for _, rec := range []IterRecord{r4, r5, r6}[:n] {
				if ok, err := want.Fold(&rec); !ok || err != nil {
					t.Fatalf("Fold(%d) = %v, %v", rec.Iteration, ok, err)
				}
			}
			if !bytes.Equal(encode(t, got), encode(t, want)) {
				t.Error("Load and Fold disagree")
			}
		})
	}

	t.Run("a log without a snapshot is no checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, LogName), logImage(r4), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir); !errors.Is(err, ErrNoCheckpoint) {
			t.Fatalf("Load = %v, want ErrNoCheckpoint", err)
		}
	})
}

// TestFoldConvergedRecord: the record that repeats a state carries the
// verdict.
func TestFoldConvergedRecord(t *testing.T) {
	st := goldenState()
	st.Converged, st.CycleLength = false, 0
	rec := nextRecord(st, 4, 0, 5)
	rec.Converged, rec.CycleLength = true, 2
	if ok, err := st.Fold(&rec); !ok || err != nil {
		t.Fatalf("Fold = %v, %v", ok, err)
	}
	if !st.Converged || st.CycleLength != 2 || st.Iteration != 4 {
		t.Errorf("converged %v, cycle %d, iteration %d", st.Converged, st.CycleLength, st.Iteration)
	}
}

// TestGoldenDirectoryLoads: a state directory as the build before the
// log wrote it — refine.ckpt alone, the recorded version-3 bytes — is
// the state it always was, and a log deleted from under a snapshot
// leaves the snapshot. Saved again, it is the version-4 bytes.
func TestGoldenDirectoryLoads(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, FileName), unhex(t, goldenV3), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	stateEqual(t, st, goldenState())
	if st.FromLog != 0 || !bytes.Equal(encode(t, st), unhex(t, goldenV4)) {
		t.Errorf("golden directory loaded with %d log records or re-encodes differently", st.FromLog)
	}
}

// TestIterLogAppend: opening empties the log, appended groups come back
// in order, and the checkpoint hook names the newest iteration of each
// group.
func TestIterLogAppend(t *testing.T) {
	dir := t.TempDir()
	recs := sampleIterRecords()
	var points []string
	TestHook = func(p string) { points = append(points, p) }
	defer func() { TestHook = nil }()
	rec := obs.New()

	path := filepath.Join(dir, LogName)
	if err := os.WriteFile(path, logImage(recs...), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenIterLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(recs[:2], rec); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, logImage(recs[:2]...)) {
		t.Fatal("log after open + append is not the two appended records")
	}
	if err := l.Append(recs[2:], rec); err != nil {
		t.Fatal(err)
	}
	if data, _ = os.ReadFile(path); !bytes.Equal(data, logImage(recs...)) {
		t.Fatal("log after a second append is not the three records")
	}
	if want := []string{"checkpoint:9", "checkpoint:10"}; !reflect.DeepEqual(points, want) {
		t.Errorf("hook points %v, want %v", points, want)
	}
	rep := rec.Report()
	if rep.Counters["ckpt.appends"] != 2 || rep.Histograms["ckpt.write_ns"].Count != 2 || rep.Gauges["ckpt.log_bytes"] != int64(len(data)) {
		t.Errorf("appends %d, write_ns count %d, log_bytes %d (file holds %d)",
			rep.Counters["ckpt.appends"], rep.Histograms["ckpt.write_ns"].Count, rep.Gauges["ckpt.log_bytes"], len(data))
	}
}

// TestAppendAfterFailedAppendIsRefused: a short or failed write leaves
// torn bytes at the end of the file, and an append behind them would be
// a valid record after garbage — what the next open refuses as mid-file
// damage. So the handle stays failed, for the journal and the refinement
// log alike, and the file still reads as the records it had.
func TestAppendAfterFailedAppendIsRefused(t *testing.T) {
	jrecs, irecs := sampleJournalRecords(), sampleIterRecords()
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
		t.Run("refine.log/"+mode.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := OpenIterLog(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if err := l.Append(irecs[:1], nil); err != nil {
				t.Fatal(err)
			}
			TestWriteWrap = func(w io.Writer) io.Writer { return mode.wrap(w, 5) }
			err = l.Append(irecs[1:2], nil)
			TestWriteWrap = nil
			if !errors.Is(err, faultio.ErrNoSpace) {
				t.Fatalf("Append under %s = %v, want ErrNoSpace", mode.name, err)
			}
			if err := l.Append(irecs[2:], nil); !errors.Is(err, faultio.ErrNoSpace) {
				t.Fatalf("Append after a failed append = %v, want the first failure", err)
			}
			data, err := os.ReadFile(filepath.Join(dir, LogName))
			if err != nil {
				t.Fatal(err)
			}
			if recs, n, _ := scanLog(data, "iteration record", decodeIterRecord); len(recs) != 1 || !bytes.Equal(data[:n], logImage(irecs[:1]...)) {
				t.Error("the log's intact records are not the one that was durable")
			}
		})
	}
}

// FuzzIterLog drives the refinement-log scanner and Fold with arbitrary
// bytes, seeded with the sample records, the faultio corruption matrix
// over them, and (testdata/fuzz) the log a real run wrote.
//
// Invariants: scanning never panics and consumes no more than its
// input; accepted records re-encode into a log that decodes to the same
// records; folding them — under the base's run id, so the index checks
// are reached — never panics and never moves the state by more than one
// iteration per record.
func FuzzIterLog(f *testing.F) {
	valid := logImage(sampleIterRecords()...)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(iterMagic))
	for _, c := range faultio.Matrix(int64(len(valid)), 0x17e4) {
		data, err := io.ReadAll(c.Wrap(bytes.NewReader(valid)))
		if err != nil {
			continue
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, consumed, _ := scanLog(data, "iteration record", decodeIterRecord)
		if consumed < 0 || consumed > len(data) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(data))
		}
		recs2, consumed2, err := scanLog(logImage(recs...), "iteration record", decodeIterRecord)
		if err != nil || consumed2 != len(logImage(recs...)) {
			t.Fatalf("re-encoded log failed to decode: %v (consumed %d)", err, consumed2)
		}
		if len(recs) > 0 && !reflect.DeepEqual(recs, recs2) {
			t.Fatalf("records changed across re-encode:\n%+v\n%+v", recs, recs2)
		}
		st := sampleState()
		st.Iteration, st.Converged = 0, false
		for i := range recs {
			recs[i].RunID = st.RunID()
			before := st.Iteration
			ok, err := st.Fold(&recs[i])
			if ok && (err != nil || st.Iteration != before+1) || !ok && st.Iteration != before {
				t.Fatalf("Fold = %v, %v took iteration %d to %d", ok, err, before, st.Iteration)
			}
		}
	})
}
