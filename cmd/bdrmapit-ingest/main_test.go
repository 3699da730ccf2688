package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	bdrmapit "repro"
	"repro/internal/ckpt"
	"repro/internal/delta"
	"repro/internal/obs"
	"repro/simnet"
)

// TestMain lets the test binary impersonate the real CLI: when
// BDRMAPIT_TEST_BE_BINARY is set the process runs main() instead of the
// tests, so the crash harness can SIGKILL a genuine bdrmapit-ingest
// process at seeded points without a separate build step.
func TestMain(m *testing.M) {
	if os.Getenv("BDRMAPIT_TEST_BE_BINARY") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type cliResult struct {
	stdout, stderr bytes.Buffer
	err            error
}

// runIngest re-executes the test binary as the bdrmapit-ingest CLI.
// crashAt, when non-empty, arms the SIGKILL seam at that hook point.
func runIngest(t *testing.T, crashAt string, args ...string) *cliResult {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BDRMAPIT_TEST_BE_BINARY=1")
	if crashAt != "" {
		cmd.Env = append(cmd.Env, "BDRMAPIT_CRASH_AT="+crashAt)
	}
	res := &cliResult{}
	cmd.Stdout = &res.stdout
	cmd.Stderr = &res.stderr
	res.err = cmd.Run()
	return res
}

func wasKilled(err error) bool {
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		return false
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == syscall.SIGKILL
}

// ingestFixture is the shared corpus of the e2e tests: the quickstart
// topology split into a base corpus and three batch files, plus a
// poison batch and the oracle annotations of every publish state a
// crash could surprise.
type ingestFixture struct {
	paths   *simnet.DatasetPaths
	base    string
	batches []string // batch-1..batch-3
	poison  string
	batchFP []uint64 // content fingerprints of batches
	// oracles[k] is the annotation bytes of a from-scratch run over
	// base + the first k batches — every state the published
	// annotations file may legitimately hold — and oracleIters[k] how
	// many refinement iterations that run took, which is how many the
	// delta run absorbing batch k takes.
	oracles     [][]byte
	oracleIters []int
}

func newIngestFixture(t *testing.T) *ingestFixture {
	t.Helper()
	n, err := simnet.Generate(simnet.Options{Small: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	p, err := n.WriteDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(p.Traceroutes)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimRight(string(data), "\n")+"\n", "\n")
	lines = lines[:len(lines)-1]
	if len(lines) < 10 {
		t.Fatalf("corpus too small to split: %d lines", len(lines))
	}
	cut := len(lines) * 3 / 5
	fx := &ingestFixture{paths: p}
	fx.base = filepath.Join(dir, "base.jsonl")
	if err := os.WriteFile(fx.base, []byte(strings.Join(lines[:cut], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	rest := lines[cut:]
	third := (len(rest) + 2) / 3
	for i := 1; len(rest) > 0; i++ {
		m := third
		if m > len(rest) {
			m = len(rest)
		}
		content := []byte(strings.Join(rest[:m], ""))
		path := filepath.Join(dir, fmt.Sprintf("batch-%d.jsonl", i))
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		fx.batches = append(fx.batches, path)
		fx.batchFP = append(fx.batchFP, delta.Fingerprint(content))
		rest = rest[m:]
	}
	if len(fx.batches) != 3 {
		t.Fatalf("split produced %d batches", len(fx.batches))
	}
	fx.poison = filepath.Join(dir, "poison.jsonl")
	if err := os.WriteFile(fx.poison, []byte("this is not a traceroute record\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= len(fx.batches); k++ {
		ann, iters := fx.oracleAnnotations(t, k)
		fx.oracles = append(fx.oracles, ann)
		fx.oracleIters = append(fx.oracleIters, iters)
	}
	return fx
}

// oracleAnnotations runs the public API from scratch over base + the
// first k batches.
func (fx *ingestFixture) oracleAnnotations(t *testing.T, k int) ([]byte, int) {
	t.Helper()
	res, err := bdrmapit.Run(bdrmapit.Sources{
		TraceroutePaths:     append([]string{fx.base}, fx.batches[:k]...),
		BGPRIBPaths:         []string{fx.paths.RIB},
		RIRDelegationPaths:  []string{fx.paths.Delegations},
		IXPPrefixListPaths:  []string{fx.paths.IXPPrefixes},
		ASRelationshipPaths: []string{fx.paths.Relationships},
		AliasNodePaths:      []string{fx.paths.Aliases},
	}, bdrmapit.Options{Workers: 1, WarnWriter: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Annotations(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res.Iterations
}

// srcArgs is the CLI argument block naming the base corpus.
func (fx *ingestFixture) srcArgs(state, ann, snap string) []string {
	return []string{
		"-state", state,
		"-traces", fx.base,
		"-rib", fx.paths.RIB,
		"-rir", fx.paths.Delegations,
		"-ixp", fx.paths.IXPPrefixes,
		"-rels", fx.paths.Relationships,
		"-aliases", fx.paths.Aliases,
		"-annotations", ann,
		"-serve-snapshot", snap,
		"-quiet-report",
	}
}

func (fx *ingestFixture) batchArg() string {
	return strings.Join([]string{fx.batches[0], fx.batches[1], fx.poison, fx.batches[2]}, ",")
}

// assertPublishedState fails when the annotations file exists but is
// not byte-identical to one of the legitimate publish states — i.e.
// when a crash left a torn or impossible output visible.
func (fx *ingestFixture) assertPublishedState(t *testing.T, ann string) {
	t.Helper()
	got, err := os.ReadFile(ann)
	if os.IsNotExist(err) {
		return // crash landed before the first publish: fine
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range fx.oracles {
		if bytes.Equal(got, want) {
			return
		}
	}
	t.Errorf("annotations file after crash matches no legitimate publish state (%d bytes)", len(got))
}

// dirFiles reads every regular file under root, keyed by its path
// relative to root. In-flight temporaries (dot-prefixed) are left out:
// a kill mid-publish leaves one behind and nothing ever reads it.
func dirFiles(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || strings.HasPrefix(d.Name(), ".") {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// countQuarantined counts the .reason verdict files in the state
// directory's quarantine.
func countQuarantined(t *testing.T, state string) int {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(state, delta.QuarantineDir))
	if err != nil {
		if os.IsNotExist(err) {
			return 0
		}
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".reason" {
			n++
		}
	}
	return n
}

// TestIngestCrashMatrix is the end-to-end durability matrix: SIGKILL
// the real CLI at seeded points spanning every stage of the intake
// state machine — bootstrap refinement, journal appends, absorbed-copy
// and output publishes, a delta run's one checkpoint, the Builder image
// — then rerun the same command with the equivalence oracle armed, which
// loads the Builder image where there is one like any restart, and
// require the final annotations
// byte-identical to a from-scratch run over the merged corpus, the
// serving snapshot and every file of the state directory byte-identical
// to those of a session nobody killed, with exactly one quarantined
// batch and no torn file visible at any point.
func TestIngestCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash matrix is not a -short test")
	}
	fx := newIngestFixture(t)
	absorbedB1 := fmt.Sprintf("%016x.jsonl", fx.batchFP[0])

	cases := []struct {
		name  string
		point string
		// bootstrapFirst runs a clean batchless session before arming
		// the crash, so the seeded point fires during batch absorption
		// rather than during the bootstrap inference.
		bootstrapFirst bool
	}{
		// The bootstrap's final snapshot is published, outputs not yet.
		{"bootstrap-checkpoint", fmt.Sprintf("checkpoint:%d", fx.oracleIters[0]), false},
		{"bootstrap-snapshot-rename", "pre-rename:refine.ckpt", false},
		{"bootstrap-publish", "pre-rename:snapshot.bin", false},
		{"republish-redo", "pre-rename:annotations.txt", true},
		{"absorbed-copy", "pre-rename:" + absorbedB1, true},
		{"journal-intent", "journal:intent", true},
		{"journal-applied", "journal:applied", true},
		{"journal-quarantined", "journal:quarantined", true},
		// The iteration-0 snapshot of the bootstrap is published. Nothing
		// is written until the final one, so this stands for every kill
		// inside the bootstrap's refinement.
		{"bootstrap-start-snapshot", "checkpoint:0", false},
		// A delta run makes one write, batch 1's final snapshot, which
		// commits the batch. Killed before its rename, the restart redoes
		// the batch; after it — the checkpoint says absorbed — neither the
		// artifacts nor the applied record are, and the restart completes
		// them.
		{"delta-snapshot-rename", "pre-rename:refine.ckpt", true},
		{"delta-final-snapshot", fmt.Sprintf("checkpoint:%d", fx.oracleIters[1]), true},
		// The session has absorbed everything and is replacing the image:
		// the bootstrapping session's first, and a later session's, whose
		// restart loads the bootstrap's image and streams the lineage.
		{"bootstrap-image", "pre-rename:builder.img", false},
		{"session-image", "pre-rename:builder.img", true},
	}
	ref := fx.uninterrupted(t)
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			outDir := t.TempDir()
			_, ann, _, src := fx.session(outDir)

			if tc.bootstrapFirst {
				boot := runIngest(t, "", src...)
				if boot.err != nil {
					t.Fatalf("bootstrap session failed: %v\nstderr: %s", boot.err, boot.stderr.String())
				}
			}

			crash := runIngest(t, tc.point, append(src, "-batch", fx.batchArg())...)
			if !wasKilled(crash.err) {
				t.Fatalf("crash run at %q did not die from SIGKILL: err=%v\nstderr: %s",
					tc.point, crash.err, crash.stderr.String())
			}
			fx.assertPublishedState(t, ann)

			recovered := runIngest(t, "", append(src, "-batch", fx.batchArg(), "-verify-delta", "-report-json", filepath.Join(outDir, "report.json"))...)
			if recovered.err != nil {
				t.Fatalf("recovery after %q failed: %v\nstderr: %s",
					tc.point, recovered.err, recovered.stderr.String())
			}
			// A restart with an image on disk — the clean bootstrap's — starts
			// from it, oracle or not, and streams no base trace file.
			rep := readReport(t, filepath.Join(outDir, "report.json"))
			want := int64(0)
			if tc.bootstrapFirst {
				want = 1
			}
			if loaded := rep.Counters["ingest.image_loaded"]; loaded != want {
				t.Errorf("recovery loaded the builder image %d time(s), want %d", loaded, want)
			}
			if streamed := rep.Counters["load.traces"]; (want == 1) != (streamed == 0) {
				t.Errorf("recovery streamed %d base traces with %d image load(s)", streamed, want)
			}
			// Either side of the delta run's one commit: before it the
			// restart redoes batch 1, after it only completes its journal;
			// each delta run writes one snapshot.
			if want, ok := map[string]int64{"delta-snapshot-rename": 3, "delta-final-snapshot": 2}[tc.name]; ok {
				if got := reportCounter(t, filepath.Join(outDir, "report.json"), "ckpt.writes"); got != want {
					t.Errorf("recovery wrote %d snapshots, want %d", got, want)
				}
			}
			fx.assertRecovered(t, outDir, ref)
		})
	}
}

// session names the state directory and published files of a session
// under dir, and the CLI arguments that give them.
func (fx *ingestFixture) session(dir string) (state, ann, snap string, src []string) {
	state = filepath.Join(dir, "state")
	ann = filepath.Join(dir, "annotations.txt")
	snap = filepath.Join(dir, "snapshot.bin")
	return state, ann, snap, fx.srcArgs(state, ann, snap)
}

// uninterrupted runs the session nobody killed — a bootstrap that
// absorbs batchArg — and returns its directory, which every recovered
// state directory and published file must equal byte for byte.
func (fx *ingestFixture) uninterrupted(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	_, _, _, src := fx.session(dir)
	if ref := runIngest(t, "", append(src, "-batch", fx.batchArg())...); ref.err != nil {
		t.Fatalf("uninterrupted session failed: %v\nstderr: %s", ref.err, ref.stderr.String())
	}
	return dir
}

// assertRecovered holds the session under dir to the uninterrupted one
// under ref: annotations equal to a from-scratch run over the merged
// corpus, one quarantined batch, and the serving snapshot and every
// state file byte-identical.
func (fx *ingestFixture) assertRecovered(t *testing.T, dir, ref string) {
	t.Helper()
	state, ann, snap, _ := fx.session(dir)
	refState, _, refSnap, _ := fx.session(ref)
	got, err := os.ReadFile(ann)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fx.oracles[len(fx.oracles)-1]) {
		t.Error("recovered annotations differ from from-scratch merged run")
	}
	if n := countQuarantined(t, state); n != 1 {
		t.Errorf("quarantine holds %d batches after recovery, want exactly 1 (the poison batch)", n)
	}
	wantSnap, err := os.ReadFile(refSnap)
	if err != nil {
		t.Fatal(err)
	}
	if gotSnap, err := os.ReadFile(snap); err != nil || !bytes.Equal(gotSnap, wantSnap) {
		t.Errorf("recovered serving snapshot differs from the uninterrupted session's (%v)", err)
	}
	gotState, wantState := dirFiles(t, state), dirFiles(t, refState)
	for name, want := range wantState {
		if got, ok := gotState[name]; !ok || !bytes.Equal(got, want) {
			t.Errorf("state file %s after recovery differs from the uninterrupted session's (present: %v)", name, ok)
		}
	}
	for name := range gotState {
		if _, ok := wantState[name]; !ok {
			t.Errorf("state directory holds %s after recovery; the uninterrupted session's does not", name)
		}
	}
}

// TestIngestRecoversRetiredDeltaBase: a delta run once published an
// iteration-0 base under the new lineage and logged each iteration
// behind it. testdata/delta-checkpoint-1 is what that CLI left when
// killed at "checkpoint:1" of batch 1's absorb after a clean bootstrap
// of this fixture's files — refine.ckpt that base, refine.log its first
// iteration — except the absorbed copy of batch 1, which is batch 1's
// bytes and is copied in here. The log is never read, so recovery
// resumes that base at iteration 0 (the batch is in its lineage), leaves
// the log where it is, and must end, under -verify-delta, byte-identical
// to a session nobody killed in every other file. The directory was written
// at commit 6691a38 (`git archive 6691a38 | tar -x -C <dir>`): in <dir>,
// a bootstrap session, then a -batch session under
// BDRMAPIT_CRASH_AT=checkpoint:1, both with this file's srcArgs and
// batchArg, keeping -state and the published files.
func TestIngestRecoversRetiredDeltaBase(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e is not a -short test")
	}
	fx := newIngestFixture(t)
	outDir := t.TempDir()
	state, _, _, src := fx.session(outDir)
	files := dirFiles(t, filepath.Join("testdata", "delta-checkpoint-1"))
	b1, err := os.ReadFile(fx.batches[0])
	if err != nil {
		t.Fatal(err)
	}
	files[filepath.Join("state", "absorbed", fmt.Sprintf("%016x.jsonl", fx.batchFP[0]))] = b1
	for name, data := range files {
		path := filepath.Join(outDir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := ckpt.Load(state)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iteration != 0 || len(st.Lineage) != 1 || st.Lineage[0].FP != fx.batchFP[0] {
		t.Fatalf("the fixture holds iteration %d of %d batches; want batch 1's iteration-0 base",
			st.Iteration, len(st.Lineage))
	}
	ref := fx.uninterrupted(t)
	report := filepath.Join(outDir, "report.json")
	recovered := runIngest(t, "", append(src, "-batch", fx.batchArg(), "-verify-delta", "-report-json", report)...)
	if recovered.err != nil {
		t.Fatalf("recovery failed: %v\nstderr: %s", recovered.err, recovered.stderr.String())
	}
	if line := fmt.Sprintf("batch batch-1.jsonl (fp %016x): resume-apply", fx.batchFP[0]); !strings.Contains(recovered.stdout.String(), line) {
		t.Errorf("recovery does not report %q:\n%s", line, recovered.stdout.String())
	}
	if from := readReport(t, report).ResumedFrom; from != 0 {
		t.Errorf("recovery's report says it resumed from iteration %d, want 0", from)
	}
	leftover := filepath.Join(state, "refine.log")
	if kept, err := os.ReadFile(leftover); err != nil || !bytes.Equal(kept, files[filepath.Join("state", "refine.log")]) {
		t.Fatalf("recovery changed or removed the leftover refine.log (%v)", err)
	}
	if err := os.Remove(leftover); err != nil {
		t.Fatal(err)
	}
	fx.assertRecovered(t, outDir, ref)
}

// reportCounter reads one counter of a -report-json report.
func reportCounter(t *testing.T, path, name string) int64 {
	t.Helper()
	return readReport(t, path).Counters[name]
}

// readReport reads a -report-json report.
func readReport(t *testing.T, path string) *obs.Report {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	return &rep
}

// TestIngestCLISession covers the CLI surface itself on a crash-free
// run: per-batch outcome lines, the session summary, the quarantine
// verdict, and idempotent re-offers on a second invocation.
func TestIngestCLISession(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e is not a -short test")
	}
	fx := newIngestFixture(t)
	outDir := t.TempDir()
	state := filepath.Join(outDir, "state")
	ann := filepath.Join(outDir, "annotations.txt")
	snap := filepath.Join(outDir, "snapshot.bin")
	args := append(fx.srcArgs(state, ann, snap),
		"-batch", fx.batchArg(), "-verify-delta", "-report-json", filepath.Join(outDir, "report.json"))

	first := runIngest(t, "", args...)
	if first.err != nil {
		t.Fatalf("session failed: %v\nstderr: %s", first.err, first.stderr.String())
	}
	out := first.stdout.String()
	if !strings.Contains(out, "absorbed: 3  skipped: 0  quarantined: 1") {
		t.Errorf("summary line missing or wrong:\n%s", out)
	}
	if !strings.Contains(out, "poison.jsonl") || !strings.Contains(out, "[decode]") {
		t.Errorf("poison verdict missing from output:\n%s", out)
	}
	got, err := os.ReadFile(ann)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fx.oracles[len(fx.oracles)-1]) {
		t.Error("published annotations differ from from-scratch merged run")
	}
	if _, err := os.Stat(filepath.Join(outDir, "report.json")); err != nil {
		t.Errorf("report JSON not written: %v", err)
	}

	second := runIngest(t, "", args...)
	if second.err != nil {
		t.Fatalf("re-offer session failed: %v\nstderr: %s", second.err, second.stderr.String())
	}
	if !strings.Contains(second.stdout.String(), "absorbed: 0  skipped: 4  quarantined: 0") {
		t.Errorf("re-offer summary wrong:\n%s", second.stdout.String())
	}
}

// TestIngestCLIRequiredFlags: the two required flags fail fast with an
// actionable message.
func TestIngestCLIRequiredFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e is not a -short test")
	}
	res := runIngest(t, "")
	if res.err == nil || !strings.Contains(res.stderr.String(), "-state is required") {
		t.Errorf("missing -state: err=%v stderr=%s", res.err, res.stderr.String())
	}
	res = runIngest(t, "", "-state", t.TempDir())
	if res.err == nil || !strings.Contains(res.stderr.String(), "-traces is required") {
		t.Errorf("missing -traces: err=%v stderr=%s", res.err, res.stderr.String())
	}
}
