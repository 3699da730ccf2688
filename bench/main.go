// Command bench is the repository's product-loop benchmark. One run
// takes one workload and one seed through the loop a user of the system
// runs — generate the measurement files, infer with cmd/bdrmapit,
// absorb delta batches with cmd/bdrmapit-ingest, serve lookups with
// cmd/bdrmapitd — using the real binaries as child processes, checks
// that every output is correct, and prints one JSON result line.
//
// Usage (from the repository root):
//
//	sh bench/run.sh --workload NAME --seed N [--seconds S] [--trace 0|1]
//	sh bench/run.sh --agree [--runs N] [--seconds S]
//
// With --trace 0 the result carries the end-to-end metrics, measured on
// untraced child processes. With --trace 1 it carries the per-layer
// metrics from one in-process pass over the same files with a span
// around every call into a layer (written to
// .bench_build/out/<workload>.trace.json). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Each round gives every timed stage a slice of roundLen proportional
// to its share. The lookup window gets the largest: on shared cores it
// is the noisiest number.
const (
	roundLen     = 2 * time.Second
	shareBatch   = 0.22
	shareBatchW1 = 0.14
	shareAbsorb  = 0.24
	shareRecover = 0.10
	shareServe   = 0.30
)

const (
	swapReloads  = 5
	warmupWindow = 300 * time.Millisecond
	swapWindow   = 600 * time.Millisecond
)

// plan is how much a run repeats.
type plan struct {
	// setupReps is how many times the dataset is generated and written;
	// setup_s is their median.
	setupReps int
	// minRounds is the floor on rounds, met even when budget is already
	// spent: every end-to-end number is a median of at least this many
	// samples.
	minRounds int
	// budget is how long the rounds keep going.
	budget time.Duration
}

// planFor turns --seconds into a plan. A traced run spends a quarter of
// the budget on child processes (only to have daemon and RSS numbers,
// and a batch wall to compare the traced pass against) and sets up
// once: it does not report setup_s.
func planFor(seconds float64, traced bool) plan {
	budget := time.Duration(seconds * float64(time.Second))
	if traced {
		return plan{setupReps: 1, minRounds: 3, budget: budget / 4}
	}
	return plan{setupReps: 3, minRounds: 5, budget: budget}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed    = flag.Int64("seed", 1, "dataset and load-mix seed")
		seconds = flag.Float64("seconds", 20, "time budget shared by the timed stages")
		trace   = flag.Int("trace", 0, "1: run the traced in-process pass and report per-layer metrics")
		agree   = flag.Bool("agree", false, "run two full sets back to back (of -workload only, when given) and compare their medians against the bounds")
		runs    = flag.Int("runs", 10, "with -agree: runs (seeds) per workload per set")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	root, err := findRoot()
	if err != nil {
		fatalf("%v", err)
	}
	if *agree {
		if err := runAgreement(root, *name, *runs, *seconds); err != nil {
			fatalf("%v", err)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	res, err := runWorkload(root, w, *seed, planFor(*seconds, *trace != 0), *trace != 0)
	if err != nil {
		fatalf("%s seed %d: %v", w.name, *seed, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(2)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

// findRoot locates the repository root — the directory holding the
// programs under test — from the working directory or its parent
// (`go run -C bench .` starts inside bench/).
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "bdrmapit", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no cmd/bdrmapit under %s or its parent: run from the repository root", wd)
}

// buildDir is where everything the benchmark produces lives: built
// binaries, the Go build cache, per-run work directories and trace
// output. It is inside the checkout and ignored by git.
func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

// buildPrograms compiles the three programs under test from the
// checkout's source, before any clock that feeds a metric starts.
func buildPrograms(root string) (binDir string, took time.Duration, err error) {
	binDir = filepath.Join(buildDir(root), "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator),
		"./cmd/bdrmapit", "./cmd/bdrmapit-ingest", "./cmd/bdrmapitd")
	cmd.Dir = root
	cmd.Env = goEnv(root)
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("building the programs under test: %w\n%s", err, out)
	}
	return binDir, time.Since(start), nil
}

// goEnv keeps the toolchain's caches inside the checkout unless the
// caller (run.sh) already placed them.
func goEnv(root string) []string {
	env := os.Environ()
	if os.Getenv("GOCACHE") == "" {
		env = append(env, "GOCACHE="+filepath.Join(buildDir(root), "gocache"))
	}
	return append(env, "GOPROXY=off", "GOTOOLCHAIN=local")
}

// runWorkload is one benchmark run.
func runWorkload(root string, w workload, seed int64, p plan, traced bool) (*result, error) {
	binDir, buildTook, err := buildPrograms(root)
	if err != nil {
		return nil, err
	}
	workRoot := filepath.Join(buildDir(root), "work")
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(workRoot, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	if err := os.MkdirAll(filepath.Join(work, "logs"), 0o755); err != nil {
		return nil, err
	}
	nproc := runtime.NumCPU()
	r := &runner{bin: binDir, work: work, nproc: nproc, procs: min(nproc, 4), w: w, seed: seed}
	logf("%s seed %d: nproc %d, %s, workers %d, GOGC %s, %d set-ups, at least %d rounds, %s of rounds",
		w.name, seed, nproc, runtime.Version(), r.procs, childGOGC, p.setupReps, p.minRounds, p.budget)

	// Stage 1: set-up. Generating and writing the dataset is repeated
	// (same seed, same bytes) so setup_s is a median, not one sample.
	var setup series
	var camp *campaign
	for i := 0; i < p.setupReps; i++ {
		dataDir := filepath.Join(work, "data")
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
		cal := calibrate(nproc)
		start := time.Now()
		if camp, err = generate(w, seed); err != nil {
			return nil, err
		}
		if r.ds, err = camp.write(dataDir, w.binary); err != nil {
			return nil, err
		}
		setup = append(setup, timed{time.Since(start).Seconds(), cal})
	}
	logf("setup: %d traces, %.1f MB, median %.2fs over %d", r.ds.traces, float64(r.ds.bytes)/1e6, setup.median(), len(setup))

	// The programs under test see only the files; the campaign stays in
	// memory only for the traced run's other-encoding check.
	if !traced {
		camp = nil
	}
	l, err := r.prepare()
	if err != nil {
		return nil, err
	}
	defer l.d.stop()
	var s samples
	if err := l.rounds(&s, p.minRounds, p.budget); err != nil {
		return nil, err
	}
	if err := l.finish(&s); err != nil {
		return nil, err
	}
	if traced {
		return r.tracedRun(root, l, &s, camp, buildTook)
	}
	logf("batch %d reps %.3fs, w1 %d reps %.3fs, rss %.1f MB; absorb %d reps %.3fs, recover %d reps %.3fs",
		len(s.batch), s.batch.median(), len(s.batchW1), s.batchW1.median(), median(s.batchRSS),
		len(s.absorb), s.absorb.median(), len(s.recover), s.recover.median())
	logf("serve: %d windows, rps %.0f, p50 %.1fµs, p99 %.1fµs, reload %.2fms; kernel %.1fms (reference %.1fms)",
		len(s.p50us), 1/s.perLookup.median(), s.p50us.median(), s.p99us.median(), median(s.reloadMS),
		1e3*s.batch.kernel(), 1e3*refKernelSeconds)

	return r.result(map[string]metric{
		"setup_s":           {setup.median(), "s"},
		"batch_wall_s":      {s.batch.median(), "s"},
		"batch_wall_w1_s":   {s.batchW1.median(), "s"},
		"batch_peak_rss_mb": {median(s.batchRSS), "MB"},
		"absorb_session_s":  {s.absorb.median(), "s"},
		"recover_s":         {s.recover.median(), "s"},
		"lookup_rps":        {1 / s.perLookup.median(), "1/s"},
		"lookup_p50_us":     {s.p50us.median(), "us"},
	}), nil
}

func (r *runner) result(metrics map[string]metric) *result {
	return &result{
		Correct:   len(r.problems) == 0,
		Attempted: r.ops.attempted,
		Failed:    r.ops.failed,
		Metrics:   metrics,
	}
}

// finish runs the swap window, drains the daemon and applies the
// serve stage's correctness rules.
func (l *loop) finish(s *samples) error {
	reloadMS, generations, err := l.d.swapWindow(swapWindow, swapReloads)
	if err != nil {
		return err
	}
	s.reloadMS = reloadMS
	l.generations = generations
	if generations < 2 {
		l.r.problemf("swap window answered from %d generation(s), want at least 2", generations)
	}
	if err := l.d.stop(); err != nil {
		return err
	}
	if d := l.d; d.failed+d.inconsistent+d.shed != 0 {
		l.r.problemf("lookups: %d failed, %d inconsistent, %d shed", d.failed, d.inconsistent, d.shed)
	}
	return nil
}

// checkDeltaEqualsScratch proves the ingest path right: the annotations
// published after the last absorb must equal, byte for byte, a
// from-scratch cmd/bdrmapit run over [base, batch1..6] in that order.
func (r *runner) checkDeltaEqualsScratch(publishedDigest string) error {
	traces := r.ds.base
	for _, b := range r.ds.batches {
		traces += "," + b
	}
	_, out, err := r.batchOnce(filepath.Join(r.work, "scratch"), r.procs, traces)
	if err != nil {
		return err
	}
	want, err := digestFile(out.annotations)
	if err != nil {
		return err
	}
	if publishedDigest != want {
		r.problemf("annotations after %d absorbs differ from a from-scratch run over base+batches", len(r.ds.batches))
	}
	return nil
}
