package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

// childGOGC is the collector setting every child runs under: Go's
// default, set explicitly so an inherited environment cannot change
// what is measured.
const childGOGC = "100"

// tally counts operations the way the result line reports them: every
// child exit, absorbed batch, lookup and reload is one attempt.
type tally struct {
	attempted, failed int64
}

func (t *tally) add(attempted, failed int64) {
	t.attempted += attempted
	t.failed += failed
}

// runner carries one benchmark run: the built binaries, the work
// directory, the generated dataset and the running failure tally.
type runner struct {
	bin    string // directory holding the built programs
	work   string // per-run scratch, removed at exit
	procs  int    // min(nproc, 4): workers and GOMAXPROCS of multi-worker children
	nproc  int
	ds     *dataset
	w      workload
	seed   int64
	ops    tally
	logSeq int
	// problems collects correctness violations; the run is correct only
	// when it stays empty.
	problems []string
}

func (r *runner) problemf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintln(os.Stderr, "bench: INCORRECT:", msg)
}

// childResult is what one finished child process cost.
type childResult struct {
	wall   time.Duration
	rssMB  float64
	stdout []byte
}

// command prepares a child with an explicit environment (GOGC,
// GOMAXPROCS) and its stderr captured to a numbered file in the work
// directory.
func (r *runner) command(prog string, gomaxprocs int, args ...string) (*exec.Cmd, *os.File, error) {
	r.logSeq++
	logPath := filepath.Join(r.work, "logs", fmt.Sprintf("%03d-%s.stderr", r.logSeq, prog))
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(filepath.Join(r.bin, prog), args...)
	cmd.Env = []string{"GOGC=" + childGOGC, "GOMAXPROCS=" + strconv.Itoa(gomaxprocs)}
	cmd.Stderr = logf
	return cmd, logf, nil
}

// run executes one child to completion through the launcher
// (launch.go), which times it and reads its peak RSS. A non-zero exit is
// counted as a failed operation and returned as an error carrying the
// end of the child's stderr.
func (r *runner) run(prog string, gomaxprocs int, args ...string) (childResult, error) {
	cmd, logf, err := r.command(prog, gomaxprocs, args...)
	if err != nil {
		return childResult{}, err
	}
	defer logf.Close()
	var out bytes.Buffer
	cmd.Stdout = &out
	rep, err := launched(cmd, filepath.Join(r.work, "launch.json"))
	res := childResult{wall: time.Duration(rep.WallS * float64(time.Second)), rssMB: rep.RSSMB, stdout: out.Bytes()}
	if err != nil {
		r.ops.add(1, 1)
		return res, fmt.Errorf("%s %s: %w\n%s", prog, strings.Join(args, " "), err, tail(logf.Name()))
	}
	r.ops.add(1, 0)
	return res, nil
}

// tail returns the end of a captured stderr file for an error message:
// the work directory holding the file is gone by the time anyone reads
// the message.
func tail(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if len(data) > 2048 {
		data = data[len(data)-2048:]
	}
	return "stderr: " + string(bytes.TrimSpace(data))
}

// batchOutputs names what one cmd/bdrmapit run wrote.
type batchOutputs struct {
	annotations, snapshot string
}

// batchOnce runs cmd/bdrmapit over traces into a fresh output
// directory, writing every artifact a production run writes.
func (r *runner) batchOnce(outDir string, workers int, traces string) (childResult, batchOutputs, error) {
	if err := os.RemoveAll(outDir); err != nil {
		return childResult{}, batchOutputs{}, err
	}
	out := batchOutputs{
		annotations: filepath.Join(outDir, "annotations.txt"),
		snapshot:    filepath.Join(outDir, "snapshot.bin"),
	}
	args := append([]string{"-traces", traces}, r.ds.contextArgs()...)
	args = append(args,
		"-annotations", out.annotations,
		"-itdk", filepath.Join(outDir, "itdk"),
		"-serve-snapshot", out.snapshot,
		"-checkpoint-dir", filepath.Join(outDir, "ckpt"),
		"-workers", strconv.Itoa(workers),
		"-quiet-report")
	res, err := r.run("bdrmapit", workers, args...)
	return res, out, err
}

var ingestSummary = regexp.MustCompile(`absorbed: (\d+)\s+skipped: (\d+)\s+quarantined: (\d+)`)

// ingestOnce runs one cmd/bdrmapit-ingest session against stateDir,
// offering batches (possibly none) and publishing annotations and a
// serving snapshot into outDir. It accounts every offered batch:
// anything not absorbed counts as failed.
func (r *runner) ingestOnce(stateDir, outDir string, batches []string) (childResult, batchOutputs, error) {
	out := batchOutputs{
		annotations: filepath.Join(outDir, "annotations.txt"),
		snapshot:    filepath.Join(outDir, "snapshot.bin"),
	}
	args := append([]string{"-state", stateDir, "-traces", r.ds.base}, r.ds.contextArgs()...)
	args = append(args,
		"-annotations", out.annotations,
		"-serve-snapshot", out.snapshot,
		"-workers", strconv.Itoa(r.procs),
		"-quiet-report")
	if len(batches) > 0 {
		args = append(args, "-batch", strings.Join(batches, ","))
	}
	res, err := r.run("bdrmapit-ingest", r.procs, args...)
	if err != nil {
		return res, out, err
	}
	m := ingestSummary.FindSubmatch(res.stdout)
	if m == nil {
		return res, out, fmt.Errorf("bdrmapit-ingest: no summary line in output %q", res.stdout)
	}
	absorbed, _ := strconv.Atoi(string(m[1]))
	bad := len(batches) - absorbed
	r.ops.add(int64(len(batches)), int64(bad))
	if bad != 0 {
		r.problemf("ingest session on %s: %s (want %d absorbed)", stateDir, m[0], len(batches))
	}
	return res, out, nil
}

// samples holds every timed observation of a run, one entry per
// repetition (or per lookup window), each with the calibration taken
// just before it. RSS is as measured.
type samples struct {
	batch, batchW1, absorb, recover series // child wall, seconds
	perLookup                       series // window seconds per verified response
	p50us, p99us                    series
	batchRSS, absorbRSS             []float64 // MB
	reloadMS                        []float64
}

// loop is the product loop once it is warmed up: every stage has run
// once untimed, its outputs are kept as the reference the timed
// repetitions must reproduce, and the daemon is up.
type loop struct {
	r *runner

	batchOut  batchOutputs // full-corpus run at r.procs workers
	digest    string       // its annotations; every batch repetition must match
	ingestOut batchOutputs // published after the last absorb
	ingestDig string

	boot     string // StateDir bootstrapped from the base corpus
	absorbed string // StateDir after absorbing every batch
	scratch  string // per-repetition copy of boot
	outDir   string // where timed ingest sessions publish

	bootstrap childResult // the bootstrap session

	d           *daemon
	generations int // distinct generations that answered in the swap window
}

// prepare runs each stage once, untimed: the warm-up that fills the
// page cache and produces the reference outputs. It also proves the
// cross-stage equalities that need no repetition: one worker equals
// many, and delta absorption equals a from-scratch run.
func (r *runner) prepare() (*loop, error) {
	l := &loop{
		r:        r,
		boot:     filepath.Join(r.work, "state-boot"),
		absorbed: filepath.Join(r.work, "state-absorbed"),
		scratch:  filepath.Join(r.work, "state-rep"),
		outDir:   filepath.Join(r.work, "ingest-out"),
	}
	var err error
	if _, l.batchOut, err = r.batchOnce(filepath.Join(r.work, "batch-ref"), r.procs, r.ds.full); err != nil {
		return nil, err
	}
	if l.digest, err = digestFile(l.batchOut.annotations); err != nil {
		return nil, err
	}
	if err := l.batchRep(1, nil); err != nil {
		return nil, err
	}

	if err := os.MkdirAll(l.outDir, 0o755); err != nil {
		return nil, err
	}
	if l.bootstrap, _, err = r.ingestOnce(l.boot, l.outDir, nil); err != nil {
		return nil, err
	}
	if err := copyDir(l.boot, l.absorbed); err != nil {
		return nil, err
	}
	var out batchOutputs
	if _, out, err = r.ingestOnce(l.absorbed, l.outDir, r.ds.batches); err != nil {
		return nil, err
	}
	l.ingestOut = batchOutputs{
		annotations: filepath.Join(r.work, "post-ingest.annotations.txt"),
		snapshot:    filepath.Join(r.work, "post-ingest.snapshot.bin"),
	}
	if err := copyFile(out.annotations, l.ingestOut.annotations); err != nil {
		return nil, err
	}
	if err := copyFile(out.snapshot, l.ingestOut.snapshot); err != nil {
		return nil, err
	}
	if l.ingestDig, err = digestFile(l.ingestOut.annotations); err != nil {
		return nil, err
	}
	if err := r.checkDeltaEqualsScratch(l.ingestDig); err != nil {
		return nil, err
	}

	if l.d, err = r.startDaemon(l.batchOut.snapshot, l.ingestOut.snapshot); err != nil {
		return nil, err
	}
	if _, err := l.d.window(warmupWindow, 0); err != nil {
		l.d.stop()
		return nil, err
	}
	return l, nil
}

// batchRep is one full-corpus cmd/bdrmapit run whose annotations must
// equal the reference. A nil s is a warm-up: checked, not recorded.
func (l *loop) batchRep(workers int, s *samples) error {
	cal := calibrate(l.r.nproc)
	res, out, err := l.r.batchOnce(filepath.Join(l.r.work, "batch-rep"), workers, l.r.ds.full)
	if err != nil {
		return err
	}
	d, err := digestFile(out.annotations)
	if err != nil {
		return err
	}
	if d != l.digest {
		l.r.problemf("batch at %d worker(s): annotations differ from the %d-worker reference", workers, l.r.procs)
	}
	switch {
	case s == nil:
	case workers == 1:
		s.batchW1 = append(s.batchW1, timed{res.wall.Seconds(), cal})
	default:
		s.batch = append(s.batch, timed{res.wall.Seconds(), cal})
		s.batchRSS = append(s.batchRSS, res.rssMB)
	}
	return nil
}

// absorbRep is one ingest session absorbing every delta batch into a
// fresh copy of the bootstrapped state.
func (l *loop) absorbRep(s *samples) error {
	if err := os.RemoveAll(l.scratch); err != nil {
		return err
	}
	if err := copyDir(l.boot, l.scratch); err != nil {
		return err
	}
	cal := calibrate(l.r.nproc)
	res, out, err := l.r.ingestOnce(l.scratch, l.outDir, l.r.ds.batches)
	if err != nil {
		return err
	}
	s.absorb = append(s.absorb, timed{res.wall.Seconds(), cal})
	s.absorbRSS = append(s.absorbRSS, res.rssMB)
	return l.checkPublished(out, "absorb")
}

// recoverRep is one ingest session with nothing to absorb against the
// post-absorb state: rebuild the corpus from lineage, restore the
// checkpoint, republish.
func (l *loop) recoverRep(s *samples) error {
	cal := calibrate(l.r.nproc)
	res, out, err := l.r.ingestOnce(l.absorbed, l.outDir, nil)
	if err != nil {
		return err
	}
	s.recover = append(s.recover, timed{res.wall.Seconds(), cal})
	return l.checkPublished(out, "recover")
}

func (l *loop) checkPublished(out batchOutputs, what string) error {
	d, err := digestFile(out.annotations)
	if err != nil {
		return err
	}
	if d != l.ingestDig {
		l.r.problemf("%s session published annotations that differ from the first absorb session's", what)
	}
	return nil
}

// windowRep is one steady lookup window.
func (l *loop) windowRep(s *samples, d time.Duration) error {
	cal := calibrate(l.r.nproc)
	start := time.Now()
	br, err := l.d.window(d, int64(len(s.p50us)+1))
	if err != nil {
		return err
	}
	elapsed := time.Since(start).Seconds()
	verified := br.OK + br.NotFound + br.Degraded
	if verified == 0 {
		return fmt.Errorf("lookup window of %s verified no response (%s)", d, br)
	}
	s.perLookup = append(s.perLookup, timed{elapsed / float64(verified), cal})
	s.p50us = append(s.p50us, timed{float64(br.P50) / 1e3, cal})
	s.p99us = append(s.p99us, timed{float64(br.P99) / 1e3, cal})
	return nil
}

// rounds interleaves the timed stages: each round gives every stage a
// slice of roundLen proportional to its share (at least one
// repetition), so each metric's samples are spread over the whole run
// instead of bunched in one stretch of it. Machine-wide slow spells
// last seconds; spreading the samples lets every metric see the quiet
// ones.
func (l *loop) rounds(s *samples, minRounds int, budget time.Duration) error {
	slice := func(share float64, rep func() error) error {
		start := time.Now()
		for {
			if err := rep(); err != nil {
				return err
			}
			if time.Since(start) >= time.Duration(share*float64(roundLen)) {
				return nil
			}
		}
	}
	stages := []struct {
		share float64
		rep   func() error
	}{
		{shareBatch, func() error { return l.batchRep(l.r.procs, s) }},
		{shareBatchW1, func() error { return l.batchRep(1, s) }},
		{shareAbsorb, func() error { return l.absorbRep(s) }},
		{shareRecover, func() error { return l.recoverRep(s) }},
	}
	start := time.Now()
	for n := 0; n < minRounds || time.Since(start) < budget; n++ {
		for _, st := range stages {
			if err := slice(st.share, st.rep); err != nil {
				return err
			}
		}
		if err := l.windowRep(s, time.Duration(shareServe*float64(roundLen))); err != nil {
			return err
		}
	}
	return nil
}

// daemon is a running cmd/bdrmapitd plus what the load generator needs
// to verify it.
type daemon struct {
	r        *runner
	cmd      *exec.Cmd
	logf     *os.File
	base     string // http://127.0.0.1:PORT
	served   string // the file the daemon loads and reloads
	snaps    [2]string
	expected map[uint64]*serve.Snapshot
	addrs    []netip.Addr
	stopped  bool

	failed, inconsistent, shed int64
	rssMB                      float64
}

var servingOn = regexp.MustCompile(`serving on (http://\S+)`)

// startDaemon starts cmd/bdrmapitd on an ephemeral loopback port
// serving a copy of batchSnap and waits until it is ready. ingestSnap
// is the other generation the swap window alternates with; responses
// are verified against whichever of the two they name.
func (r *runner) startDaemon(batchSnap, ingestSnap string) (*daemon, error) {
	d := &daemon{
		r:        r,
		served:   filepath.Join(r.work, "served.snapshot.bin"),
		snaps:    [2]string{batchSnap, ingestSnap},
		expected: make(map[uint64]*serve.Snapshot),
	}
	if err := copyFile(batchSnap, d.served); err != nil {
		return nil, err
	}
	for i, p := range d.snaps {
		snap, err := serve.Open(p)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			d.addrs = population(snap, r.w.missesHot)
		}
		d.expected[snap.Fingerprint()] = snap
	}
	var err error
	if d.cmd, d.logf, err = r.command("bdrmapitd", r.nproc, "-snapshot", d.served, "-addr", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		d.logf.Close()
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		d.logf.Close()
		return nil, err
	}
	if d.base, err = awaitReady(stdout); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop drains the daemon with SIGTERM and waits for it to exit (killing
// it if the drain hangs). Safe to call twice.
func (d *daemon) stop() error {
	if d.stopped {
		return nil
	}
	d.stopped = true
	defer d.logf.Close()
	// Read while it is still alive: the daemon is spawned from this
	// process, so its rusage would carry this process's RSS (launch.go).
	d.rssMB, _ = peakRSSMB(d.cmd.Process.Pid)
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
		err = errors.New("no drain within 20s of SIGTERM; killed")
	}
	if err != nil {
		d.r.ops.add(1, 1)
		return fmt.Errorf("bdrmapitd: %w\n%s", err, tail(d.logf.Name()))
	}
	d.r.ops.add(1, 0)
	return nil
}

// window drives closed-loop verified load from this process for dur:
// one client per core, each sending its next request when the previous
// answer arrived. Every response is checked against the snapshot it
// names; failed, inconsistent and shed responses count as failed
// operations.
func (d *daemon) window(dur time.Duration, seedOff int64) (*serve.BenchResult, error) {
	br, err := d.load(dur, seedOff)
	if err != nil {
		return nil, err
	}
	d.account(br)
	return br, nil
}

func (d *daemon) account(br *serve.BenchResult) {
	d.r.ops.add(br.Requests, br.Failed+br.Inconsistent+br.Shed)
	d.failed += br.Failed
	d.inconsistent += br.Inconsistent
	d.shed += br.Shed
}

// load is window without the accounting, so it can run on another
// goroutine.
func (d *daemon) load(dur time.Duration, seedOff int64) (*serve.BenchResult, error) {
	return serve.Bench(context.Background(), serve.BenchConfig{
		BaseURL: d.base, Clients: d.r.nproc, Duration: dur, ZipfS: d.r.w.zipf,
		Seed: d.r.seed + seedOff, Addrs: d.addrs, Expected: d.expected,
	})
}

// swapWindow keeps the load running for dur while the served file
// alternates between the post-ingest and the batch snapshot, with a
// POST /-/reload after each replacement. It returns the reload round
// trips and how many generations answered.
func (d *daemon) swapWindow(dur time.Duration, reloads int) (reloadMS []float64, generations int, err error) {
	// The load runs beside the reloads; both are accounted on this
	// goroutine, the load once it has been waited for.
	type loadOut struct {
		br  *serve.BenchResult
		err error
	}
	done := make(chan loadOut, 1)
	go func() {
		br, err := d.load(dur, 1<<20)
		done <- loadOut{br, err}
	}()
	gap := dur / time.Duration(reloads+1)
	for i := 0; i < reloads; i++ {
		time.Sleep(gap)
		ms, rerr := d.reload(d.snaps[(i+1)%2])
		if rerr != nil {
			d.r.ops.add(1, 1)
			d.r.problemf("reload %d: %v", i+1, rerr)
			continue
		}
		d.r.ops.add(1, 0)
		reloadMS = append(reloadMS, ms)
	}
	out := <-done
	if out.err != nil {
		return nil, 0, out.err
	}
	d.account(out.br)
	return reloadMS, len(out.br.Generations), nil
}

// reload atomically replaces the served snapshot file with next and
// posts /-/reload, returning the round trip in milliseconds.
func (d *daemon) reload(next string) (float64, error) {
	tmp := d.served + ".next"
	if err := copyFile(next, tmp); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, d.served); err != nil {
		return 0, err
	}
	start := time.Now()
	resp, err := http.Post(d.base+"/-/reload", "text/plain", nil)
	if err != nil {
		return 0, err
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("POST /-/reload: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return float64(time.Since(start).Nanoseconds()) / 1e6, nil
}

// awaitReady reads the daemon's "serving on" line for the bound
// address, keeps draining its stdout, and polls /-/ready until it
// answers 200.
func awaitReady(stdout io.Reader) (string, error) {
	sc := bufio.NewScanner(stdout)
	var base string
	for sc.Scan() {
		if m := servingOn.FindStringSubmatch(sc.Text()); m != nil {
			base = m[1]
			break
		}
	}
	if base == "" {
		return "", fmt.Errorf("bdrmapitd exited before announcing its address (scan error: %v)", sc.Err())
	}
	go func() { _, _ = io.Copy(io.Discard, stdout) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/-/ready")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return base, nil
			}
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("bdrmapitd at %s not ready after 10s (last error: %v)", base, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// population is the lookup address list serve.Bench draws from with
// zipf popularity (index 0 is the most popular): every interface of
// the snapshot, then eight class-E addresses no measurement contains.
// missesHot reverses it so the misses are the popular end.
func population(snap *serve.Snapshot, missesHot bool) []netip.Addr {
	addrs := make([]netip.Addr, 0, len(snap.Ifaces)+8)
	for i := range snap.Ifaces {
		addrs = append(addrs, snap.Ifaces[i].Addr)
	}
	for i := 1; i <= 8; i++ {
		addrs = append(addrs, netip.AddrFrom4([4]byte{240, 0, 0, byte(i)}))
	}
	if missesHot {
		slices.Reverse(addrs)
	}
	return addrs
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// copyDir copies a directory tree of regular files (a StateDir).
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		return copyFile(path, target)
	})
}
