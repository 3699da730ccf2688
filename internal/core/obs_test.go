package core

import (
	"encoding/json"
	"testing"

	"repro/internal/obs"
)

// Telemetry integration: the convergence trace and phase tree a
// recorder captures must agree with what Result reports.

// obsEnv builds a small multi-AS scenario with enough structure for the
// refinement loop to take more than one iteration.
func obsEnv(t *testing.T) *testEnv {
	e := newEnv(t)
	e.announce("1.0.0.0/24", 100)
	e.announce("2.0.0.0/24", 200)
	e.announce("3.0.0.0/24", 300)
	e.rels.AddP2C(100, 200)
	e.rels.AddP2C(200, 300)
	e.trace("3.0.0.99", "1.0.0.1", "2.0.0.1", "3.0.0.1", "3.0.0.99/e")
	e.trace("2.0.0.99", "1.0.0.2", "2.0.0.2", "2.0.0.99/e")
	e.trace("3.0.0.88", "1.0.0.1", "2.0.0.1", "3.0.0.2")
	return e
}

// TestConvergenceTraceMatchesIterations: the refine.iterations series
// has exactly one row per executed iteration, numbered 1..N, and the
// iteration gauge agrees with Result.Iterations.
func TestConvergenceTraceMatchesIterations(t *testing.T) {
	rec := obs.New()
	res := obsEnv(t).run(Options{Recorder: rec})
	if !res.Converged {
		t.Fatal("scenario did not converge")
	}
	rep := res.Report
	if rep == nil {
		t.Fatal("Result.Report is nil with a recorder attached")
	}

	trace := rep.Series["refine.iterations"]
	if len(trace) != res.Iterations {
		t.Fatalf("convergence trace has %d rows, want %d (= Iterations)",
			len(trace), res.Iterations)
	}
	for i, row := range trace {
		if row["iteration"] != int64(i+1) {
			t.Errorf("row %d: iteration = %d, want %d", i, row["iteration"], i+1)
		}
		if row["votes_cast"] <= 0 {
			t.Errorf("row %d: votes_cast = %d, want > 0", i, row["votes_cast"])
		}
	}
	// The final iteration is the repeated state: nothing changed.
	last := trace[len(trace)-1]
	if last["routers_changed"] != 0 {
		t.Errorf("final iteration changed %d routers, want 0", last["routers_changed"])
	}
	if rep.Gauges["refine.iterations"] != int64(res.Iterations) {
		t.Errorf("iterations gauge = %d, want %d",
			rep.Gauges["refine.iterations"], res.Iterations)
	}
	if rep.Gauges["refine.converged"] != 1 {
		t.Errorf("converged gauge = %d, want 1", rep.Gauges["refine.converged"])
	}
	if rep.Gauges["refine.cycle_length"] != int64(res.CycleLength) {
		t.Errorf("cycle_length gauge = %d, want %d",
			rep.Gauges["refine.cycle_length"], res.CycleLength)
	}
}

// TestReportPhaseTree: every pipeline phase appears with a positive
// duration, and the report round-trips through JSON intact.
func TestReportPhaseTree(t *testing.T) {
	rec := obs.New()
	res := obsEnv(t).run(Options{Recorder: rec})

	data, err := json.Marshal(res.Report)
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}

	durations := map[string]int64{}
	var walk func(ps []obs.PhaseReport)
	walk = func(ps []obs.PhaseReport) {
		for _, p := range ps {
			durations[p.Name] = p.DurationNS
			walk(p.Children)
		}
	}
	walk(rep.Phases)
	for _, name := range []string{"construct-graph", "resolve", "finish-graph", "lasthop", "refine"} {
		d, ok := durations[name]
		if !ok {
			t.Errorf("phase %q missing from report (have %v)", name, rep.Phases)
			continue
		}
		if d <= 0 {
			t.Errorf("phase %q duration = %d ns, want > 0", name, d)
		}
	}
	if rep.Counters["graph.interfaces"] == 0 || rep.Counters["graph.routers"] == 0 {
		t.Errorf("graph counters empty: %v", rep.Counters)
	}
	if rep.Counters["refine.votes_cast"] == 0 {
		t.Error("refine.votes_cast = 0, want > 0")
	}
}

// TestRunWithoutRecorder: a nil recorder still yields a valid (if
// empty) report and identical inference results — the no-op path the
// hot loop relies on.
func TestRunWithoutRecorder(t *testing.T) {
	plain := obsEnv(t).run(Options{})
	if plain.Report == nil {
		t.Fatal("Report is nil without a recorder")
	}
	if len(plain.Report.Phases) != 0 || len(plain.Report.Counters) != 0 {
		t.Errorf("recorder-less report carries data: %+v", plain.Report)
	}

	rec := obs.New()
	instrumented := obsEnv(t).run(Options{Recorder: rec})
	if plain.Iterations != instrumented.Iterations {
		t.Errorf("iterations differ with recorder: %d vs %d",
			plain.Iterations, instrumented.Iterations)
	}
	for _, i := range plain.Graph.Interfaces {
		j := instrumented.Graph.Interface(i.Addr)
		if j == nil || i.Router.Annotation != j.Router.Annotation {
			t.Fatalf("annotation of %s differs with recorder attached", i.Addr)
		}
	}
}
