package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	bdrmapit "repro"
	"repro/internal/serve"
	"repro/simnet"
)

// TestMain lets the test binary impersonate the daemon (the same
// re-exec pattern as cmd/bdrmapit's crash harness), so the smoke test
// drives a genuine bdrmapitd process — real signals, real sockets —
// without a separate build step.
func TestMain(m *testing.M) {
	if os.Getenv("BDRMAPITD_TEST_BE_BINARY") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// inferSnapshot runs the full inference over a simnet topology and
// returns the serving-snapshot bytes plus the offline annotations
// rendering — the two artifacts whose agreement the daemon must prove.
func inferSnapshot(t *testing.T, seed int64) (snapBytes, annotations []byte) {
	t.Helper()
	n, err := simnet.Generate(simnet.Options{Small: true, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	p, err := n.WriteDataset(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, err := bdrmapit.Run(bdrmapit.Sources{
		TraceroutePaths:     []string{p.Traceroutes},
		BGPRIBPaths:         []string{p.RIB},
		RIRDelegationPaths:  []string{p.Delegations},
		IXPPrefixListPaths:  []string{p.IXPPrefixes},
		ASRelationshipPaths: []string{p.Relationships},
		AliasNodePaths:      []string{p.Aliases},
	}, bdrmapit.Options{WarnWriter: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "run.snap")
	if err := res.WriteServeSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	var ann bytes.Buffer
	if err := res.Annotations(&ann); err != nil {
		t.Fatal(err)
	}
	return data, ann.Bytes()
}

// daemon is one live bdrmapitd subprocess.
type daemon struct {
	cmd     *exec.Cmd
	baseURL string
	stderr  *bytes.Buffer
	done    chan error
}

// startDaemon launches the daemon on an ephemeral port and waits for
// its readiness probe.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BDRMAPITD_TEST_BE_BINARY=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, stderr: &bytes.Buffer{}, done: make(chan error, 1)}
	cmd.Stderr = d.stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
		}
	})

	// The daemon prints its bound address on stdout before serving.
	sc := bufio.NewScanner(stdout)
	addrc := make(chan string, 1)
	go func() {
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "serving on http://"); ok {
				if host, _, found := strings.Cut(rest, " "); found {
					addrc <- host
				}
			}
		}
		close(addrc)
	}()
	go func() { d.done <- cmd.Wait() }()

	select {
	case host, ok := <-addrc:
		if !ok {
			t.Fatalf("daemon exited before announcing its address\nstderr: %s", d.stderr.String())
		}
		d.baseURL = "http://" + host
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon did not announce its address\nstderr: %s", d.stderr.String())
	}
	waitReady(t, d.baseURL, true)
	return d
}

// waitReady polls /-/ready until it reports the wanted state.
func waitReady(t *testing.T, baseURL string, want bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(baseURL + "/-/ready")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if (resp.StatusCode == http.StatusOK) == want {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("readiness never became %v", want)
}

// generationOf reads the published generation from /-/ready.
func generationOf(t *testing.T, baseURL string) uint64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/-/ready")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("ready probe: status %d err %v", resp.StatusCode, err)
	}
	var env struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("ready body %q: %v", body, err)
	}
	return env.Generation
}

// TestServeSmoke is the serving pipeline end to end: run two real
// inferences, serve the first from a genuine daemon process, hammer it
// with verified concurrent load while hot-swapping to the second via
// SIGHUP, refuse a corrupt swap without disturbing service, prove
// byte-equality against the offline annotations file, and drain
// cleanly on SIGTERM. The hard acceptance bar: across the whole run,
// zero failed responses and zero responses inconsistent with the
// generation they claim.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke test is not a -short test")
	}
	snapA, annA := inferSnapshot(t, 42)
	snapB, _ := inferSnapshot(t, 43)
	if bytes.Equal(snapA, snapB) {
		t.Fatal("seed 42 and 43 produced identical snapshots; the swap would be unobservable")
	}

	dir := t.TempDir()
	snapPath := filepath.Join(dir, "serve.snap")
	annPath := filepath.Join(dir, "annotations.txt")
	if err := os.WriteFile(snapPath, snapA, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(annPath, annA, 0o644); err != nil {
		t.Fatal(err)
	}

	// Expected-answer tables for the verifier, keyed by fingerprint.
	expA, err := serve.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	bPath := filepath.Join(dir, "b.snap")
	if err := os.WriteFile(bPath, snapB, 0o644); err != nil {
		t.Fatal(err)
	}
	expB, err := serve.Open(bPath)
	if err != nil {
		t.Fatal(err)
	}
	expected := map[uint64]*serve.Snapshot{
		expA.Fingerprint(): expA,
		expB.Fingerprint(): expB,
	}

	d := startDaemon(t, "-snapshot", snapPath, "-addr", "127.0.0.1:0", "-v")

	// Byte-equality with the offline artifact, before any load: every
	// annotated address answers exactly what the run wrote to disk.
	swept, err := serve.SweepAnnotations(context.Background(), d.baseURL, annPath)
	if err != nil {
		t.Fatalf("annotations sweep: %v", err)
	}
	if swept == 0 {
		t.Fatal("annotations sweep verified zero addresses")
	}
	t.Logf("sweep: %d addresses byte-equal to the offline annotations", swept)

	// Address population: both snapshots' interfaces plus guaranteed
	// misses.
	var addrs []netip.Addr
	seen := map[netip.Addr]bool{}
	for _, s := range []*serve.Snapshot{expA, expB} {
		for i := range s.Ifaces {
			if a := s.Ifaces[i].Addr; !seen[a] {
				seen[a] = true
				addrs = append(addrs, a)
			}
		}
	}
	addrs = append(addrs, netip.MustParseAddr("240.0.0.1"), netip.MustParseAddr("240.0.0.2"))

	// Sustained verified load, with a SIGHUP hot swap to snapshot B in
	// the middle of it.
	var (
		benchRes *serve.BenchResult
		benchErr error
		wg       sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		benchRes, benchErr = serve.Bench(context.Background(), serve.BenchConfig{
			BaseURL:  d.baseURL,
			Clients:  8,
			Duration: 4 * time.Second,
			Seed:     1,
			Addrs:    addrs,
			Expected: expected,
		})
	}()

	time.Sleep(1 * time.Second)
	if gen := generationOf(t, d.baseURL); gen != 1 {
		t.Errorf("pre-swap generation = %d, want 1", gen)
	}
	// Atomic producer-side replace (write temp, rename over), then the
	// reload signal.
	tmp := filepath.Join(dir, ".serve.snap.new")
	if err := os.WriteFile(tmp, snapB, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, snapPath); err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	swapDeadline := time.Now().Add(5 * time.Second)
	for generationOf(t, d.baseURL) != 2 && time.Now().Before(swapDeadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if gen := generationOf(t, d.baseURL); gen != 2 {
		t.Fatalf("SIGHUP hot swap never published generation 2 (at %d)\nstderr: %s", gen, d.stderr.String())
	}

	// Mid-load corrupt-swap refusal: garbage at the snapshot path, then
	// the admin reload endpoint; the daemon must refuse with 409 and
	// keep serving generation 2.
	if err := os.WriteFile(snapPath, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(d.baseURL+"/-/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	refusal, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("corrupt reload: status %d, want 409 (body %q)", resp.StatusCode, refusal)
	}
	if gen := generationOf(t, d.baseURL); gen != 2 {
		t.Errorf("corrupt reload disturbed the published generation: %d", gen)
	}

	wg.Wait()
	if benchErr != nil {
		t.Fatalf("bench: %v", benchErr)
	}
	t.Logf("bench across hot swap: %s", benchRes)
	if benchRes.Requests == 0 || benchRes.OK == 0 {
		t.Fatalf("bench did no verified work: %s", benchRes)
	}
	if benchRes.Failed != 0 {
		t.Errorf("hot swap under load produced %d failed responses", benchRes.Failed)
	}
	if benchRes.Inconsistent != 0 {
		t.Errorf("hot swap under load produced %d cross-generation-inconsistent responses", benchRes.Inconsistent)
	}
	if len(benchRes.Generations) < 2 {
		t.Errorf("load observed %d generation(s), want both sides of the swap: %v",
			len(benchRes.Generations), benchRes.Generations)
	}

	// Graceful drain: SIGTERM flips readiness and the process exits 0.
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-d.done:
		if err != nil {
			t.Fatalf("drain exit: %v\nstderr: %s", err, d.stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not exit after SIGTERM\nstderr: %s", d.stderr.String())
	}
	if !strings.Contains(d.stderr.String(), "drained cleanly") {
		t.Errorf("daemon did not report a clean drain\nstderr: %s", d.stderr.String())
	}
}

// TestOverloadSheds proves the overload contract on a real daemon: with
// a one-request budget and far more concurrent clients, some requests
// must be shed with 503 — and the ones admitted still get full answers
// that verify.
func TestOverloadSheds(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke test is not a -short test")
	}
	snapA, _ := inferSnapshot(t, 42)
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "serve.snap")
	if err := os.WriteFile(snapPath, snapA, 0o644); err != nil {
		t.Fatal(err)
	}
	exp, err := serve.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	var addrs []netip.Addr
	for i := range exp.Ifaces {
		addrs = append(addrs, exp.Ifaces[i].Addr)
	}

	// A 2ms handler floor makes in-flight pressure build: without it
	// the microsecond-fast lookups drain faster than 32 clients can
	// queue, and the budget is never even reached.
	d := startDaemon(t, "-snapshot", snapPath, "-addr", "127.0.0.1:0",
		"-max-inflight", "1", "-handler-delay", "2ms")
	res, err := serve.Bench(context.Background(), serve.BenchConfig{
		BaseURL:  d.baseURL,
		Clients:  32,
		Duration: 2 * time.Second,
		Seed:     2,
		Addrs:    addrs,
		Expected: map[uint64]*serve.Snapshot{exp.Fingerprint(): exp},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("overload bench: %s", res)
	if res.Shed == 0 {
		t.Error("a one-request budget under 32 clients shed nothing; admission control is not engaging")
	}
	if res.OK == 0 {
		t.Error("no verified full answer got through while the daemon shed")
	}
	if res.Failed != 0 || res.Inconsistent != 0 {
		t.Errorf("overload produced failed (%d) or inconsistent (%d) responses; shedding must be the only refusal",
			res.Failed, res.Inconsistent)
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := <-d.done; err != nil {
		t.Fatalf("drain exit: %v\nstderr: %s", err, d.stderr.String())
	}
}
