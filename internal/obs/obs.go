// Package obs is the pipeline's telemetry layer: atomic counters,
// gauges, and histograms cheap enough for the refinement hot loop,
// span-style phase timing producing a run-report tree, per-iteration
// convergence series, and an optional debug HTTP server exposing the
// metrics as expvar-style JSON next to net/http/pprof.
//
// The package has no dependencies outside the standard library and no
// global state: every run owns a Recorder, and everything the Recorder
// saw is snapshotted into a JSON-marshalable Report.
//
// A nil *Recorder is the no-op recorder: every method on a nil Recorder
// (and on the nil handles it returns) is safe to call and does nothing,
// so instrumented code never branches on "is telemetry on". Metric
// handles should be fetched once (Counter, Histogram, …) and used many
// times; a handle update is a single atomic operation.
//
// Phase nests by a stack and is for the goroutine that orchestrates the
// pipeline. Work that runs beside it names its place in the tree instead
// (Recorder.Root, Span.Child): those spans are never on the stack, so
// goroutines opening and ending them concurrently cannot adopt or pop
// each other's. The metric handles themselves are safe for any number of
// concurrent writers.
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically adjusted counter. A nil Counter discards
// updates, so callers can hold handles from a nil Recorder.
type Counter struct{ n atomic.Int64 }

// Add adds d to the counter.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.n.Add(d)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a last-write-wins instantaneous value.
type Gauge struct{ n atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.n.Store(v)
	}
}

// Value returns the stored value (0 for a nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.n.Load()
}

// histBuckets is the number of power-of-two histogram buckets; bucket i
// counts observations v with bits.Len64(v) == i, i.e. 2^(i-1) <= v < 2^i
// (bucket 0 holds v <= 0). 48 buckets cover ~78 hours in nanoseconds.
const histBuckets = 48

// Histogram accumulates a distribution in power-of-two buckets. All
// updates are atomic; Observe is one predictable cache line away from a
// plain counter bump.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
	h.buckets[bucketOf(v)].Add(1)
}

func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Row is one sample of a Series: named values observed together (e.g.
// one refinement iteration's statistics).
type Row map[string]int64

// Series is an append-only sequence of Rows — the shape of the
// convergence trace: one Row per refinement iteration.
type Series struct {
	mu   sync.Mutex
	rows []Row
}

// Append adds one row.
func (s *Series) Append(r Row) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.rows = append(s.rows, r)
	s.mu.Unlock()
}

// Len returns the number of rows.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.rows)
}

// Rows returns a copy of the accumulated rows.
func (s *Series) Rows() []Row {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Row, len(s.rows))
	copy(out, s.rows)
	return out
}

// Span is one timed phase of the run. Spans nest — a Phase opened while
// another Phase is open becomes its child, a Child is its parent's — and
// the completed tree is the run report's skeleton.
type Span struct {
	rec      *Recorder
	name     string
	start    time.Time
	end      time.Time
	notes    map[string]int64
	children []*Span
}

// Note attaches a named value to the span (shown in the report next to
// the phase's duration).
func (s *Span) Note(key string, v int64) {
	if s == nil {
		return
	}
	s.rec.mu.Lock()
	if s.notes == nil {
		s.notes = make(map[string]int64)
	}
	s.notes[key] = v
	s.rec.mu.Unlock()
}

// Child opens a named span under s, whichever spans are open elsewhere.
// Like a Root it stays off the Phase stack; it may be opened and ended
// on any goroutine. Returns nil (a no-op span) on a nil Span.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{rec: s.rec, name: name, start: time.Now()}
	s.rec.mu.Lock()
	s.children = append(s.children, c)
	s.rec.mu.Unlock()
	return c
}

// End closes the span. Ending a Phase also pops any Phase opened after
// it and still open, so a missing inner End cannot corrupt the tree; a
// Root or Child was never on the stack, and ending one pops nothing.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.rec.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	for i := len(s.rec.stack) - 1; i >= 0; i-- {
		if s.rec.stack[i] == s {
			s.rec.stack = s.rec.stack[:i]
			break
		}
	}
	s.rec.mu.Unlock()
}

// Recorder collects one run's telemetry. The zero value is not usable;
// construct with New. A nil *Recorder is the no-op recorder.
type Recorder struct {
	start time.Time

	mu           sync.Mutex
	counters     map[string]*Counter
	gauges       map[string]*Gauge
	hists        map[string]*Histogram
	series       map[string]*Series
	roots        []*Span
	stack        []*Span
	warnings     []string
	degradations []Degradation
	interrupted  bool
	resumedFrom  int
	logw         io.Writer
}

// New returns an enabled Recorder.
func New() *Recorder {
	return &Recorder{
		start:    time.Now(),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		series:   make(map[string]*Series),
	}
}

// Enabled reports whether the recorder collects anything; instrumented
// code uses it to skip work (like reading the clock) that only feeds
// telemetry.
func (r *Recorder) Enabled() bool { return r != nil }

// Counter returns the named counter, registering it on first use.
// Returns nil (a no-op handle) on a nil Recorder.
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, registering it on first use.
func (r *Recorder) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, registering it on first use.
func (r *Recorder) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Series returns the named series, registering it on first use.
func (r *Recorder) Series(name string) *Series {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[name]
	if !ok {
		s = &Series{}
		r.series[name] = s
	}
	return s
}

// Phase opens a named span. The span nests under the innermost open
// span, if any. Returns nil (a no-op span) on a nil Recorder.
func (r *Recorder) Phase(name string) *Span {
	if r == nil {
		return nil
	}
	s := &Span{rec: r, name: name, start: time.Now()}
	r.mu.Lock()
	if n := len(r.stack); n > 0 {
		p := r.stack[n-1]
		p.children = append(p.children, s)
	} else {
		r.roots = append(r.roots, s)
	}
	r.stack = append(r.stack, s)
	r.mu.Unlock()
	return s
}

// Root opens a named top-level span that is not on the Phase stack: it
// does not nest under whatever Phase is open, and Phases opened while it
// is open do not nest under it. It is how a stage that overlaps the
// orchestrating goroutine's phases keeps its own line in the report; its
// parts are opened with Span.Child. Returns nil on a nil Recorder.
func (r *Recorder) Root(name string) *Span {
	if r == nil {
		return nil
	}
	s := &Span{rec: r, name: name, start: time.Now()}
	r.mu.Lock()
	r.roots = append(r.roots, s)
	r.mu.Unlock()
	return s
}

// SetLogOutput directs verbose progress logs (Logf) and warnings
// (Warnf) to w; nil (the default) discards Logf output. Warnings are
// additionally kept in the Report regardless.
func (r *Recorder) SetLogOutput(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.logw = w
	r.mu.Unlock()
}

// Logf writes one verbose progress line, prefixed with the elapsed time
// since the Recorder was created. No-op unless SetLogOutput was called.
func (r *Recorder) Logf(format string, args ...any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	w := r.logw
	r.mu.Unlock()
	if w == nil {
		return
	}
	fmt.Fprintf(w, "[%8s] %s\n", time.Since(r.start).Round(time.Millisecond), fmt.Sprintf(format, args...))
}

// Warnf records a warning: it is appended to the Report's warning list
// (always) and written to the log output (when set), so anomalies like
// an oscillating refinement loop stay diagnosable even in quiet runs.
func (r *Recorder) Warnf(format string, args ...any) {
	if r == nil {
		return
	}
	msg := fmt.Sprintf(format, args...)
	r.mu.Lock()
	r.warnings = append(r.warnings, msg)
	w := r.logw
	r.mu.Unlock()
	if w != nil {
		fmt.Fprintf(w, "[%8s] warning: %s\n", time.Since(r.start).Round(time.Millisecond), msg)
	}
}

// sortedKeys returns m's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
