package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	bdrmapit "repro"
	"repro/internal/alias"
	"repro/internal/asrel"
	"repro/internal/bgp"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/ip2as"
	"repro/internal/ixp"
	"repro/internal/mrt"
	"repro/internal/obs"
	"repro/internal/rir"
	"repro/internal/serve"
	"repro/internal/traceroute"
)

// span is one timed call into a layer, recorded by the harness around
// the layer's public functions; the programs carry no instrumentation
// of their own beyond the obs.Report they already return.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0: top level
	Name     string `json:"name"`   // layer.operation
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"` // since the traced pass began
	EndNS    int64  `json:"end_ns"`
	// Allocation deltas over the span and heap in use at its end, from
	// runtime.MemStats. Zero for spans adopted from an obs.Report.
	AllocBytes uint64           `json:"alloc_bytes,omitempty"`
	Mallocs    uint64           `json:"mallocs,omitempty"`
	HeapInuse  uint64           `json:"heap_inuse_after,omitempty"`
	Notes      map[string]int64 `json:"notes,omitempty"`
}

func (s *span) ms() float64      { return float64(s.EndNS-s.StartNS) / 1e6 }
func (s *span) allocMB() float64 { return float64(s.AllocBytes) / (1 << 20) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	workload string
	t0       time.Time
	spans    []*span
	open     []int // stack of open span IDs
}

// do records a span around fn.
func (t *tracer) do(name string, fn func(*span) error) (*span, error) {
	sp := &span{ID: len(t.spans) + 1, Name: name, Workload: t.workload}
	if len(t.open) > 0 {
		sp.Parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, sp)
	t.open = append(t.open, sp.ID)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp.StartNS = time.Since(t.t0).Nanoseconds()
	err := fn(sp)
	sp.EndNS = time.Since(t.t0).Nanoseconds()
	runtime.ReadMemStats(&after)
	sp.AllocBytes = after.TotalAlloc - before.TotalAlloc
	sp.Mallocs = after.Mallocs - before.Mallocs
	sp.HeapInuse = after.HeapInuse
	t.open = t.open[:len(t.open)-1]
	if err != nil {
		return sp, fmt.Errorf("%s: %w", name, err)
	}
	return sp, nil
}

// phaseLayer maps the phase names programs already report to the layer
// that does the work, so adopted spans count toward the right layer's
// self time.
var phaseLayer = map[string]string{
	"load-inputs":        "bdrmapit",
	"load-traces":        "traceroute",
	"load-rib":           "bgp",
	"load-rir":           "auxload",
	"load-ixp":           "auxload",
	"load-relationships": "auxload",
	"load-aliases":       "auxload",
	"digest-inputs":      "digest",
	"construct-graph":    "core",
	"resolve":            "core",
	"finish-graph":       "core",
	"lasthop":            "core",
	"refine":             "core",
	"delta-seed":         "delta",
	"ingest-batch":       "ingest",
}

// adopt copies a report's phase tree under parent. Reports carry
// durations, not start times; phases of one level run back to back, so
// each is laid out from where its predecessor ended.
func (t *tracer) adopt(parent *span, phases []obs.PhaseReport) {
	at := parent.StartNS
	for _, p := range phases {
		layer := phaseLayer[p.Name]
		if layer == "" {
			layer = "bdrmapit"
		}
		sp := &span{
			ID: len(t.spans) + 1, Parent: parent.ID, Name: layer + "." + p.Name,
			Workload: t.workload, StartNS: at, EndNS: at + p.DurationNS, Notes: p.Notes,
		}
		t.spans = append(t.spans, sp)
		t.adopt(sp, p.Children)
		at = sp.EndNS
	}
}

// selfMS is each layer's self time: every span's duration minus what
// its children cover, summed by the layer its name begins with.
func (t *tracer) selfMS() map[string]float64 {
	covered := make(map[int]int64)
	for _, sp := range t.spans {
		covered[sp.Parent] += sp.EndNS - sp.StartNS
	}
	out := make(map[string]float64)
	for _, sp := range t.spans {
		layer, _, _ := strings.Cut(sp.Name, ".")
		out[layer] += float64(sp.EndNS-sp.StartNS-covered[sp.ID]) / 1e6
	}
	return out
}

// write publishes the trace file.
func (t *tracer) write(path string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		SelfMS   map[string]float64 `json:"layer_self_ms"`
		Spans    []*span            `json:"spans"`
	}{t.workload, seed, t.selfMS(), t.spans}
	return ckpt.AtomicWrite(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(doc)
	})
}

// phase finds the first phase named name in a report's tree.
func phase(phases []obs.PhaseReport, name string) (obs.PhaseReport, bool) {
	for _, p := range phases {
		if p.Name == name {
			return p, true
		}
		if c, ok := phase(p.Children, name); ok {
			return c, true
		}
	}
	return obs.PhaseReport{}, false
}

func phaseMS(phases []obs.PhaseReport, name string) float64 {
	p, _ := phase(phases, name)
	return float64(p.DurationNS) / 1e6
}

// tracedRun finishes a --trace 1 run. The short pass through the child
// stages that came before supplies the numbers only real processes
// have (daemon tail latency, reload time, RSS); here one in-process
// pass over the same files puts a span around each call into a layer.
func (r *runner) tracedRun(root string, l *loop, s *samples, camp *campaign, buildTook time.Duration) (*result, error) {
	m := map[string]metric{
		"harness.build_s":            {buildTook.Seconds(), "s"},
		"bdrmapitd.lookup_p99_us":    {s.p99us.raw(), "us"},
		"bdrmapitd.reload_ms":        {median(s.reloadMS), "ms"},
		"bdrmapitd.rss_mb":           {l.d.rssMB, "MB"},
		"bdrmapitd.failed":           {float64(l.d.failed), "count"},
		"bdrmapitd.inconsistent":     {float64(l.d.inconsistent), "count"},
		"bdrmapitd.shed":             {float64(l.d.shed), "count"},
		"bdrmapitd.generations_seen": {float64(l.generations), "count"},
		"ingest.bootstrap_s":         {l.bootstrap.wall.Seconds(), "s"},
		"ingest.peak_rss_mb":         {median(s.absorbRSS), "MB"},
		"ingest.state_dir_mb":        {dirMB(l.absorbed), "MB"},
		"harness.batch_wall_s":       {s.batch.raw(), "s"},
		"harness.kernel_ms":          {1e3 * s.batch.kernel(), "ms"},
		"harness.setup_traces":       {float64(r.ds.traces), "count"},
		"harness.setup_corpus_mb":    {float64(r.ds.bytes) / (1 << 20), "MB"},
		"harness.batch_reps":         {float64(len(s.batch)), "count"},
		"harness.lookup_windows":     {float64(len(s.p50us)), "count"},
		"harness.nproc":              {float64(r.nproc), "count"},
		"harness.workers":            {float64(r.procs), "count"},
		"harness.absorb_reps":        {float64(len(s.absorb)), "count"},
	}

	t := &tracer{workload: r.w.name, t0: time.Now()}
	if err := r.tracedPass(t, m); err != nil {
		return nil, err
	}
	if batch := s.batch.raw(); batch > 0 {
		m["harness.trace_overhead_pct"] = metric{100 * (m["harness.traced_batch_s"].Value/batch - 1), "%"}
	}
	if err := r.checkOtherEncoding(camp, l.digest); err != nil {
		return nil, err
	}
	out := filepath.Join(buildDir(root), "out", r.w.name+".trace.json")
	if err := t.write(out, r.seed); err != nil {
		return nil, err
	}
	logf("trace: %d spans written to %s", len(t.spans), out)
	return r.result(m), nil
}

// checkOtherEncoding proves the encodings interchangeable (and so the
// two wide workloads one corpus): the same campaign written in the
// other trace/RIB encoding must produce byte-identical annotations.
func (r *runner) checkOtherEncoding(camp *campaign, want string) error {
	alt, err := camp.write(filepath.Join(r.work, "data-alt"), !r.w.binary)
	if err != nil {
		return err
	}
	saved := r.ds
	r.ds = alt
	_, out, err := r.batchOnce(filepath.Join(r.work, "batch-alt"), r.procs, alt.full)
	r.ds = saved
	if err != nil {
		return err
	}
	got, err := digestFile(out.annotations)
	if err != nil {
		return err
	}
	if got != want {
		r.problemf("annotations from the JSONL and the binary encoding of one campaign differ")
	}
	return nil
}

// sources names the run's input files the way the public API takes
// them.
func (r *runner) sources(traces ...string) bdrmapit.Sources {
	return bdrmapit.Sources{
		TraceroutePaths:     traces,
		BGPRIBPaths:         []string{r.ds.rib},
		RIRDelegationPaths:  []string{r.ds.rir},
		IXPPrefixListPaths:  []string{r.ds.ixp},
		ASRelationshipPaths: []string{r.ds.rels},
		AliasNodePaths:      []string{r.ds.aliases},
	}
}

// withFile opens path for fn.
func withFile(path string, fn func(io.Reader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return fn(f)
}

// tracedPass walks the product path in this process, layer by layer,
// filling m with the per-layer metrics.
func (r *runner) tracedPass(t *tracer, m map[string]metric) error {
	ctx := context.Background()
	dir := filepath.Join(r.work, "traced")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Loaders, each through its own public reader.
	var traces []*traceroute.Trace
	sp, err := t.do("traceroute.read", func(*span) error {
		return withFile(r.ds.full, func(f io.Reader) error {
			collect := func(tr *traceroute.Trace) error { traces = append(traces, tr); return nil }
			if r.w.binary {
				return traceroute.ReadBinary(f, collect)
			}
			_, err := traceroute.ReadJSONLStats(f, collect)
			return err
		})
	})
	if err != nil {
		return err
	}
	set("traceroute.read_ms", sp.ms(), "ms")
	set("traceroute.read_mb_per_s", float64(r.ds.bytes)/(1<<20)/(sp.ms()/1e3), "MB/s")
	set("traceroute.alloc_mb", sp.allocMB(), "MB")
	set("traceroute.traces", float64(len(traces)), "count")

	var routes []bgp.Route
	sp, err = t.do("bgp.load", func(*span) error {
		return withFile(r.ds.rib, func(f io.Reader) (err error) {
			if r.w.binary {
				routes, err = mrt.Read(f)
			} else {
				routes, _, err = bgp.ReadRoutesStats(f)
			}
			return err
		})
	})
	if err != nil {
		return err
	}
	set("bgp.load_ms", sp.ms(), "ms")

	dels, ixps := rir.New(), ixp.NewSet()
	var rels *asrel.Graph
	var aliases *alias.Sets
	sp, err = t.do("auxload.all", func(*span) error {
		steps := []struct {
			name, path string
			read       func(io.Reader) error
		}{
			{"auxload.rir", r.ds.rir, func(f io.Reader) error { _, err := rir.ReadIntoStats(dels, f); return err }},
			{"auxload.ixp", r.ds.ixp, func(f io.Reader) error { _, err := ixps.ReadListStats(f); return err }},
			{"auxload.asrel", r.ds.rels, func(f io.Reader) (err error) { rels, err = asrel.Read(f); return err }},
			{"auxload.alias", r.ds.aliases, func(f io.Reader) (err error) { aliases, err = alias.ReadNodes(f); return err }},
		}
		for _, st := range steps {
			if _, err := t.do(st.name, func(*span) error { return withFile(st.path, st.read) }); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	set("auxload.ms", sp.ms(), "ms")

	// Core: graph construction and refinement at the run's worker
	// count, then the whole of core at one worker.
	resolver := &ip2as.Resolver{IXPs: ixps, Table: bgp.NewTable(routes), Delegations: dels}
	var g *core.Graph
	sp, err = t.do("core.build_graph", func(*span) (err error) {
		g, err = core.BuildGraphContext(ctx, traces, resolver, aliases, rels, core.Options{Workers: r.procs})
		return err
	})
	if err != nil {
		return err
	}
	set("core.build_graph_ms", sp.ms(), "ms")
	set("core.build_graph_alloc_mb", sp.allocMB(), "MB")
	set("core.graph_ifaces", float64(len(g.Interfaces)), "count")
	set("core.graph_routers", float64(len(g.Routers)), "count")

	rec := obs.New()
	var cres *core.Result
	sp, err = t.do("core.run", func(*span) (err error) {
		cres, err = core.RunContext(ctx, g, rels, core.Options{Workers: r.procs, Recorder: rec})
		return err
	})
	if err != nil {
		return err
	}
	t.adopt(sp, cres.Report.Phases)
	refineMS := phaseMS(cres.Report.Phases, "refine")
	set("core.lasthop_ms", phaseMS(cres.Report.Phases, "lasthop"), "ms")
	set("core.refine_ms", refineMS, "ms")
	set("core.refine_iters", float64(cres.Iterations), "count")
	set("core.refine_per_iter_ms", refineMS/float64(max(cres.Iterations, 1)), "ms")
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	set("core.heap_after_mb", float64(ms.HeapInuse)/(1<<20), "MB") // traces, graph and annotations live
	g, cres = nil, nil

	sp, err = t.do("core.infer_w1", func(*span) error {
		_, err := core.InferContext(ctx, traces, resolver, aliases, rels, core.Options{Workers: 1})
		return err
	})
	if err != nil {
		return err
	}
	set("core.infer_w1_ms", sp.ms(), "ms")
	traces, routes, resolver = nil, nil, nil

	// The batch path as cmd/bdrmapit drives it, through the public API,
	// and every writer. Its phase tree is the one the program reports.
	var res *bdrmapit.Result
	ckDir := filepath.Join(dir, "ckpt")
	batchStart := time.Now()
	sp, err = t.do("bdrmapit.run", func(*span) (err error) {
		res, err = bdrmapit.RunContext(ctx, r.sources(r.ds.full), bdrmapit.Options{
			Workers: r.procs, CheckpointDir: ckDir, Provenance: true, WarnWriter: io.Discard,
		})
		return err
	})
	if err != nil {
		return err
	}
	t.adopt(sp, res.Report.Phases)
	set("digest.inputs_ms", phaseMS(res.Report.Phases, "digest-inputs"), "ms")
	set("ckpt.write_ms", float64(res.Report.Histograms["ckpt.write_ns"].Sum)/1e6, "ms")

	annPath := filepath.Join(dir, "annotations.txt")
	snapPath := filepath.Join(dir, "snapshot.bin")
	var snap *serve.Snapshot
	var encoded bytes.Buffer
	writers := []struct {
		name string
		fn   func() error
	}{
		{"annotations.write", func() error { return ckpt.AtomicWrite(annPath, res.Annotations) }},
		{"itdk.write", func() error { return res.WriteITDK(filepath.Join(dir, "itdk")) }},
		{"prov.write", func() error { return res.WriteProvenance(filepath.Join(dir, "run.prov")) }},
		{"snapshot.build", func() (err error) { snap, err = res.ServeSnapshot(); return err }},
		{"snapshot.encode", func() error { return serve.Encode(&encoded, snap) }},
		{"snapshot.write", func() error { return serve.WriteFile(snapPath, snap) }},
	}
	for _, w := range writers {
		sp, err := t.do(w.name, func(*span) error { return w.fn() })
		if err != nil {
			return err
		}
		if w.name != "snapshot.write" {
			set(w.name+"_ms", sp.ms(), "ms")
		}
	}
	set("harness.traced_batch_s", time.Since(batchStart).Seconds(), "s")
	set("snapshot.bytes", float64(encoded.Len()), "bytes")
	res = nil

	sp, err = t.do("ckpt.load", func(*span) error { _, err := ckpt.Load(ckDir); return err })
	if err != nil {
		return err
	}
	set("ckpt.load_ms", sp.ms(), "ms")
	if fi, err := os.Stat(filepath.Join(ckDir, ckpt.FileName)); err == nil {
		set("ckpt.bytes", float64(fi.Size()), "bytes")
	}

	if err := r.tracedServe(t, snapPath, set); err != nil {
		return err
	}
	return r.tracedIngest(ctx, t, dir, set)
}

// lookupDraws is how many population draws each in-process lookup loop
// times: enough that the loop runs for milliseconds, not microseconds.
const lookupDraws = 200_000

// tracedServe times the serving layer without a socket: snapshot open,
// the three Snapshot lookups over the workload's population, the HTTP
// handler through httptest, and an in-process reload.
func (r *runner) tracedServe(t *tracer, snapPath string, set func(string, float64, string)) error {
	var snap *serve.Snapshot
	sp, err := t.do("serve.open", func(*span) (err error) { snap, err = serve.Open(snapPath); return err })
	if err != nil {
		return err
	}
	set("serve.open_ms", sp.ms(), "ms")

	addrs := population(snap, r.w.missesHot)
	rng := rand.New(rand.NewSource(r.seed))
	zipf := rand.NewZipf(rng, r.w.zipf, 1, uint64(len(addrs)-1))
	draws := make([]netip.Addr, lookupDraws)
	for i := range draws {
		draws[i] = addrs[zipf.Uint64()]
	}
	hits := 0
	loops := []struct {
		name string
		fn   func(netip.Addr) bool
	}{
		{"serve.lookup", func(a netip.Addr) bool { _, ok := snap.Lookup(a); return ok }},
		{"serve.lookup_link", func(a netip.Addr) bool { _, ok := snap.LookupLink(a); return ok }},
		{"serve.lookup_prefix", func(a netip.Addr) bool { _, ok := snap.LookupPrefix(a); return ok }},
	}
	for _, lp := range loops {
		sp, err := t.do(lp.name, func(sp *span) error {
			for _, a := range draws {
				if lp.fn(a) {
					hits++
				}
			}
			sp.Notes = map[string]int64{"ops": lookupDraws, "hits": int64(hits)}
			return nil
		})
		if err != nil {
			return err
		}
		set(lp.name+"_ns", sp.ms()*1e6/lookupDraws, "ns")
	}

	srv := serve.New(serve.Config{SnapshotPath: snapPath})
	if err := srv.Load(); err != nil {
		return err
	}
	h := srv.Handler()
	// The load generator's 6:2:2 class mix, dealt deterministically.
	classes := [10]string{"lookup", "ip2as", "lookup", "link", "lookup", "ip2as", "lookup", "link", "lookup", "lookup"}
	const handlerOps = lookupDraws / 10
	sp, err = t.do("serve.handler", func(sp *span) error {
		for i := 0; i < handlerOps; i++ {
			req := httptest.NewRequest(http.MethodGet, "/v1/"+classes[i%10]+"?ip="+draws[i].String(), nil)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				return fmt.Errorf("handler answered %d for %s", w.Code, req.URL)
			}
		}
		sp.Notes = map[string]int64{"ops": handlerOps}
		return nil
	})
	if err != nil {
		return err
	}
	set("serve.handler_ns", sp.ms()*1e6/handlerOps, "ns")

	_, err = t.do("serve.reload", func(*span) error { _, err := srv.Reload(); return err })
	return err
}

// tracedIngest runs the ingest path in this process: a bootstrap
// session, delta validation of every batch, and one session absorbing
// them all, whose report names what each absorb spent where.
func (r *runner) tracedIngest(ctx context.Context, t *tracer, dir string, set func(string, float64, string)) error {
	state := filepath.Join(dir, "state")
	src := r.sources(r.ds.base)
	session := func(name string, batches []string) (*bdrmapit.IngestResult, error) {
		var out *bdrmapit.IngestResult
		sp, err := t.do(name, func(*span) (err error) {
			out, err = bdrmapit.IngestContext(ctx, src, batches, bdrmapit.IngestOptions{
				StateDir:        state,
				AnnotationsPath: filepath.Join(dir, "ingest.annotations.txt"),
				SnapshotPath:    filepath.Join(dir, "ingest.snapshot.bin"),
				Run:             bdrmapit.Options{Workers: r.procs, WarnWriter: io.Discard},
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		t.adopt(sp, out.Report.Phases)
		return out, nil
	}
	if _, err := session("ingest.bootstrap", nil); err != nil {
		return err
	}

	sp, err := t.do("delta.validate", func(*span) error {
		for _, p := range r.ds.batches {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			if _, _, err := delta.ValidateBatch(filepath.Base(p), delta.Fingerprint(data), data, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	set("delta.validate_ms", sp.ms(), "ms")

	out, err := session("ingest.session", r.ds.batches)
	if err != nil {
		return err
	}
	if out.Absorbed != len(r.ds.batches) || out.Quarantined != 0 {
		r.problemf("in-process ingest session: absorbed %d, quarantined %d (want %d, 0)", out.Absorbed, out.Quarantined, len(r.ds.batches))
	}
	// One ingest-batch phase per absorb; report the median absorb and
	// the median of each of its parts.
	var absorb, rebuild, seed, refine []float64
	for _, p := range out.Report.Phases {
		if p.Name != "ingest-batch" {
			continue
		}
		absorb = append(absorb, float64(p.DurationNS)/1e6)
		rebuild = append(rebuild, phaseMS(p.Children, "construct-graph"))
		seed = append(seed, phaseMS(p.Children, "delta-seed"))
		refine = append(refine, phaseMS(p.Children, "refine"))
	}
	set("ingest.base_load_ms", phaseMS(out.Report.Phases, "load-inputs"), "ms")
	set("ingest.absorb_batch_ms", median(absorb), "ms")
	set("ingest.rebuild_graph_ms", median(rebuild), "ms")
	set("ingest.delta_seed_ms", median(seed), "ms")
	set("ingest.delta_refine_ms", median(refine), "ms")
	set("delta.dirty_routers", float64(out.Report.Gauges["delta.dirty_routers"]), "count")
	set("delta.dirty_ifaces", float64(out.Report.Gauges["delta.dirty_ifaces"]), "count")
	return nil
}

// dirMB is the total size of the regular files under dir.
func dirMB(dir string) float64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				total += fi.Size()
			}
		}
		return nil
	})
	return float64(total) / (1 << 20)
}
