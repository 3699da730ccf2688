package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCountersConcurrent hammers one counter, gauge, and histogram from
// many goroutines; run under -race this is the package's central
// soundness check (the refinement hot loop updates handles from every
// worker shard at once).
func TestCountersConcurrent(t *testing.T) {
	rec := New()
	c := rec.Counter("hits")
	g := rec.Gauge("level")
	h := rec.Histogram("lat")
	s := rec.Series("trace")

	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Set(int64(w))
				h.Observe(int64(i + 1))
				if i == 0 {
					s.Append(Row{"worker": int64(w)})
				}
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if s.Len() != workers {
		t.Errorf("series rows = %d, want %d", s.Len(), workers)
	}
	hr := snapshotHistogram(h)
	if hr.Count != workers*per {
		t.Errorf("histogram count = %d, want %d", hr.Count, workers*per)
	}
	if hr.Max != per {
		t.Errorf("histogram max = %d, want %d", hr.Max, per)
	}
	if hr.P50 <= 0 || hr.P99 < hr.P50 {
		t.Errorf("histogram quantiles out of order: p50=%d p99=%d", hr.P50, hr.P99)
	}
}

// TestPhaseNesting verifies that spans opened while another is open
// become children, siblings stay siblings, and End is idempotent.
func TestPhaseNesting(t *testing.T) {
	rec := New()
	outer := rec.Phase("outer")
	inner := rec.Phase("inner")
	time.Sleep(time.Millisecond)
	inner.End()
	sibling := rec.Phase("sibling")
	sibling.End()
	outer.End()
	outer.End() // idempotent
	top := rec.Phase("top")
	top.Note("n", 7)
	top.End()

	rep := rec.Report()
	if len(rep.Phases) != 2 {
		t.Fatalf("root phases = %d, want 2", len(rep.Phases))
	}
	o := rep.Phases[0]
	if o.Name != "outer" || len(o.Children) != 2 {
		t.Fatalf("outer = %q with %d children, want outer with 2", o.Name, len(o.Children))
	}
	if o.Children[0].Name != "inner" || o.Children[1].Name != "sibling" {
		t.Errorf("children = %q, %q; want inner, sibling", o.Children[0].Name, o.Children[1].Name)
	}
	if o.Children[0].DurationNS <= 0 {
		t.Errorf("inner duration = %d, want > 0", o.Children[0].DurationNS)
	}
	if o.DurationNS < o.Children[0].DurationNS {
		t.Errorf("outer (%d ns) shorter than inner (%d ns)", o.DurationNS, o.Children[0].DurationNS)
	}
	if rep.Phases[1].Notes["n"] != 7 {
		t.Errorf("top notes = %v, want n=7", rep.Phases[1].Notes)
	}
}

// TestUnbalancedEnd: ending an outer span pops a forgotten inner one,
// so a later phase lands at the root rather than under a ghost parent.
func TestUnbalancedEnd(t *testing.T) {
	rec := New()
	outer := rec.Phase("outer")
	rec.Phase("leaked") // never ended directly
	outer.End()
	after := rec.Phase("after")
	after.End()

	rep := rec.Report()
	if len(rep.Phases) != 2 || rep.Phases[1].Name != "after" {
		t.Fatalf("phases = %+v, want [outer after] at the root", rep.Phases)
	}
}

// TestExplicitParents: spans opened with Root and Child keep the place
// they were given while a second goroutine opens and ends Phases and
// children of its own — nothing is adopted by, or popped from under,
// the other side. Run under -race.
func TestExplicitParents(t *testing.T) {
	rec := New()
	load := rec.Root("load")
	left, right := load.Child("left"), load.Child("right")
	const rounds = 200
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < rounds; i++ {
			c := right.Child("r")
			c.Note("i", int64(i))
			c.End()
		}
		right.End()
	}()
	build := rec.Phase("build") // the orchestrator's stack, while load is open
	for i := 0; i < rounds; i++ {
		inner := rec.Phase("step")
		c := left.Child("l")
		c.End()
		inner.End()
	}
	left.End()
	build.End()
	<-done
	load.End()
	after := rec.Phase("after")
	after.End()

	rep := rec.Report()
	var names []string
	for _, p := range rep.Phases {
		names = append(names, p.Name)
	}
	if got := strings.Join(names, " "); got != "load build after" {
		t.Fatalf("roots = %q, want load build after", got)
	}
	ld, bd := rep.Phases[0], rep.Phases[1]
	if len(ld.Children) != 2 || ld.Children[0].Name != "left" || ld.Children[1].Name != "right" {
		t.Fatalf("load children = %+v, want left, right", ld.Children)
	}
	for i, want := range []string{"l", "r"} {
		kids := ld.Children[i].Children
		if len(kids) != rounds {
			t.Fatalf("%s has %d children, want %d", ld.Children[i].Name, len(kids), rounds)
		}
		for _, k := range kids {
			if k.Name != want {
				t.Fatalf("%s adopted a %q span", ld.Children[i].Name, k.Name)
			}
		}
	}
	if len(bd.Children) != rounds {
		t.Fatalf("build has %d children, want its %d steps", len(bd.Children), rounds)
	}
	for _, k := range bd.Children {
		if k.Name != "step" || len(k.Children) != 0 {
			t.Fatalf("build child %+v, want a bare step", k)
		}
	}

	var nilSpan *Span
	nilSpan.Child("x").End() // the nil span is the no-op span
	var nilRec *Recorder
	nilRec.Root("x").Child("y").End()
}

// TestReportJSONRoundTrip: a fully-populated report survives
// encoding/json both ways.
func TestReportJSONRoundTrip(t *testing.T) {
	rec := New()
	rec.Counter("c").Add(42)
	rec.Gauge("g").Set(-7)
	rec.Histogram("h").Observe(1000)
	rec.Series("s").Append(Row{"iteration": 1, "routers_changed": 9})
	rec.Warnf("synthetic warning %d", 1)
	ph := rec.Phase("phase")
	ph.Note("k", 3)
	ph.End()

	rep := rec.Report()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["c"] != 42 || back.Gauges["g"] != -7 {
		t.Errorf("metrics lost: %+v", back)
	}
	if back.Histograms["h"].Count != 1 || back.Histograms["h"].Sum != 1000 {
		t.Errorf("histogram lost: %+v", back.Histograms["h"])
	}
	if !reflect.DeepEqual(back.Series["s"], rep.Series["s"]) {
		t.Errorf("series lost: %+v vs %+v", back.Series["s"], rep.Series["s"])
	}
	if len(back.Warnings) != 1 || back.Warnings[0] != "synthetic warning 1" {
		t.Errorf("warnings lost: %v", back.Warnings)
	}
	if len(back.Phases) != 1 || back.Phases[0].Notes["k"] != 3 {
		t.Errorf("phases lost: %+v", back.Phases)
	}
	if back.WallNS <= 0 {
		t.Errorf("wall clock = %d, want > 0", back.WallNS)
	}
}

// TestNilRecorder: the nil recorder and all its handles are inert but
// safe — the contract instrumented code relies on.
func TestNilRecorder(t *testing.T) {
	var rec *Recorder
	if rec.Enabled() {
		t.Error("nil recorder reports enabled")
	}
	rec.Counter("c").Add(1)
	rec.Gauge("g").Set(1)
	rec.Histogram("h").Observe(1)
	rec.Series("s").Append(Row{"x": 1})
	if rec.Series("s").Len() != 0 || rec.Counter("c").Value() != 0 {
		t.Error("nil handles retained data")
	}
	sp := rec.Phase("p")
	sp.Note("k", 1)
	sp.End()
	rec.SetLogOutput(&bytes.Buffer{})
	rec.Logf("x")
	rec.Warnf("y")
	rep := rec.Report()
	if len(rep.Phases) != 0 || len(rep.Counters) != 0 {
		t.Errorf("nil recorder report non-empty: %+v", rep)
	}
}

func TestLogfAndWarnf(t *testing.T) {
	rec := New()
	var buf bytes.Buffer
	rec.Logf("dropped before sink is set")
	rec.SetLogOutput(&buf)
	rec.Logf("loaded %d traces", 5)
	rec.Warnf("cycle length %d", 2)
	out := buf.String()
	if !strings.Contains(out, "loaded 5 traces") {
		t.Errorf("log output missing progress line: %q", out)
	}
	if !strings.Contains(out, "warning: cycle length 2") {
		t.Errorf("log output missing warning: %q", out)
	}
	if got := rec.Report().Warnings; len(got) != 1 {
		t.Errorf("report warnings = %v, want 1 entry", got)
	}
}

// TestHandler exercises the debug endpoints: /debug/vars and
// /debug/report serve parseable JSON carrying the live metrics, and the
// pprof index responds.
func TestHandler(t *testing.T) {
	rec := New()
	rec.Counter("hits").Add(3)
	srv := httptest.NewServer(Handler(rec))
	defer srv.Close()

	var vars struct {
		Report Report `json:"report"`
	}
	getJSON(t, srv.URL+"/debug/vars", &vars)
	if vars.Report.Counters["hits"] != 3 {
		t.Errorf("/debug/vars counters = %v, want hits=3", vars.Report.Counters)
	}
	var rep Report
	getJSON(t, srv.URL+"/debug/report", &rep)
	if rep.Counters["hits"] != 3 {
		t.Errorf("/debug/report counters = %v, want hits=3", rep.Counters)
	}
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status = %d", resp.StatusCode)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}

// TestWriteSummary smoke-checks the human-readable rendering.
func TestWriteSummary(t *testing.T) {
	rec := New()
	ph := rec.Phase("refine")
	ph.Note("iterations", 3)
	ph.End()
	rec.Histogram("refine.router_shard_ns").Observe(1500)
	rec.Series("refine.iterations").Append(Row{
		"iteration": 1, "routers_changed": 12, "interfaces_changed": 4, "votes_cast": 99,
	})
	rec.Warnf("something odd")

	var buf bytes.Buffer
	WriteSummary(&buf, rec.Report())
	out := buf.String()
	for _, want := range []string{"refine", "iterations=3", "convergence trace", "routers-changed", "something odd"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 1 << 20, 1 << 62} {
		h.Observe(v)
	}
	hr := snapshotHistogram(&h)
	if hr.Count != 6 {
		t.Errorf("count = %d, want 6", hr.Count)
	}
	if hr.Max != 1<<62 {
		t.Errorf("max = %d, want 2^62", hr.Max)
	}
	// v=0 → bucket 0 (bound "1"); v=1 → bucket 1 (bound "2").
	if hr.Buckets["1"] != 1 || hr.Buckets["2"] != 1 {
		t.Errorf("low buckets = %v", hr.Buckets)
	}
}

// TestHistogramQuantileEdges is the regression test for the empty- and
// single-sample quantile bug: quantiles are exclusive bucket upper
// bounds, so without clamping an empty histogram of zeros reported
// P50=1 > Max=0 and any single sample reported quantiles above the only
// value ever observed.
func TestHistogramQuantileEdges(t *testing.T) {
	var empty Histogram
	hr := snapshotHistogram(&empty)
	if hr.P50 != 0 || hr.P90 != 0 || hr.P99 != 0 {
		t.Errorf("empty histogram quantiles = %d/%d/%d, want 0/0/0", hr.P50, hr.P90, hr.P99)
	}

	for _, v := range []int64{0, 1, 5, 1000} {
		var h Histogram
		h.Observe(v)
		hr := snapshotHistogram(&h)
		if hr.P50 != v || hr.P90 != v || hr.P99 != v {
			t.Errorf("single sample %d: quantiles = %d/%d/%d, want the sample itself",
				v, hr.P50, hr.P90, hr.P99)
		}
	}

	// Multi-sample: quantiles stay ordered and never exceed Max.
	var h Histogram
	for _, v := range []int64{3, 3, 3, 100} {
		h.Observe(v)
	}
	hr = snapshotHistogram(&h)
	if hr.P50 > hr.P90 || hr.P90 > hr.P99 || hr.P99 > hr.Max {
		t.Errorf("quantiles disordered or above max: p50=%d p90=%d p99=%d max=%d",
			hr.P50, hr.P90, hr.P99, hr.Max)
	}
}
