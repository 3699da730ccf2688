// Package benchfmt defines the committed benchmark-ladder artifact
// format: the schema of the BENCH_<rung>.json files cmd/benchrun emits
// and cmd/reportcheck validates. The schema is versioned and gated by
// tests, so a drifting field name or a missing metric fails CI instead
// of silently producing incomparable numbers across commits.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/ckpt"
	"repro/internal/topo"
)

// SchemaVersion is the current bench-file schema. Bump it on any
// incompatible change (renamed/removed fields, changed units) so stale
// readers refuse the file instead of misreading it.
const SchemaVersion = 1

// Required per-phase timings: the pipeline phases every bench file must
// account for, named exactly as internal/obs records them.
var requiredPhases = []string{"construct-graph", "lasthop", "refine"}

// Topology records the generated world and campaign the rung measured.
type Topology struct {
	ASes       int `json:"ases"`
	Routers    int `json:"routers"`    // ground-truth routers
	Interfaces int `json:"interfaces"` // ground-truth assigned addresses
	VPs        int `json:"vps"`
	Targets    int `json:"targets"`
	Traces     int `json:"traces"`
	// GraphRouters/GraphInterfaces are the inferred IR graph's sizes —
	// the populations the refinement loop actually iterates.
	GraphRouters    int `json:"graph_routers"`
	GraphInterfaces int `json:"graph_interfaces"`
}

// Phase is one pipeline phase's wall-clock share.
type Phase struct {
	Name       string `json:"name"`
	DurationNS int64  `json:"duration_ns"`
}

// Refine captures the refinement loop's convergence and per-iteration
// cost, plus the provenance comparison when the run measured it.
type Refine struct {
	Iterations int   `json:"iterations"`
	Converged  bool  `json:"converged"`
	PerIterNS  int64 `json:"per_iter_ns"`
	// ProvPerIterNS is the per-iteration cost of the same graph with
	// Options.Provenance on; 0 when the run skipped the
	// comparison (-skip-provenance).
	ProvPerIterNS int64 `json:"prov_per_iter_ns,omitempty"`
	// ProvOverheadPct = 100 × (ProvPerIterNS/PerIterNS − 1): the
	// per-iteration cost of decision provenance. The M-rung acceptance
	// budget is 5%.
	ProvOverheadPct float64 `json:"prov_overhead_pct,omitempty"`
}

// File is one committed BENCH_<rung>.json artifact.
type File struct {
	SchemaVersion int    `json:"schema_version"`
	Rung          string `json:"rung"`
	Seed          int64  `json:"seed"`
	Workers       int    `json:"workers"`
	GoMaxProcs    int    `json:"gomaxprocs"`

	WallNS       int64 `json:"wall_ns"`
	PeakRSSBytes int64 `json:"peak_rss_bytes"`

	Topology Topology `json:"topology"`
	Phases   []Phase  `json:"phases"`
	Refine   Refine   `json:"refine"`
}

// Validate checks one bench file against the schema: version match,
// known rung, campaign and graph populations present, every required
// phase timed, and a positive per-iteration refinement cost.
func (f *File) Validate() error {
	if f.SchemaVersion != SchemaVersion {
		return fmt.Errorf("benchfmt: schema version %d, want %d", f.SchemaVersion, SchemaVersion)
	}
	if topo.RungIndex(f.Rung) < 0 {
		return fmt.Errorf("benchfmt: unknown rung %q (want one of %v)", f.Rung, topo.RungNames())
	}
	if f.Workers <= 0 {
		return fmt.Errorf("benchfmt: rung %s: workers %d, want > 0", f.Rung, f.Workers)
	}
	if f.GoMaxProcs <= 0 {
		return fmt.Errorf("benchfmt: rung %s: gomaxprocs %d, want > 0", f.Rung, f.GoMaxProcs)
	}
	if f.WallNS <= 0 {
		return fmt.Errorf("benchfmt: rung %s: wall_ns %d, want > 0", f.Rung, f.WallNS)
	}
	if f.PeakRSSBytes <= 0 {
		return fmt.Errorf("benchfmt: rung %s: peak_rss_bytes %d, want > 0", f.Rung, f.PeakRSSBytes)
	}
	type count struct {
		name string
		n    int
	}
	for _, c := range []count{
		{"topology.ases", f.Topology.ASes},
		{"topology.routers", f.Topology.Routers},
		{"topology.interfaces", f.Topology.Interfaces},
		{"topology.vps", f.Topology.VPs},
		{"topology.targets", f.Topology.Targets},
		{"topology.traces", f.Topology.Traces},
		{"topology.graph_routers", f.Topology.GraphRouters},
		{"topology.graph_interfaces", f.Topology.GraphInterfaces},
	} {
		if c.n <= 0 {
			return fmt.Errorf("benchfmt: rung %s: %s = %d, want > 0", f.Rung, c.name, c.n)
		}
	}
	seen := make(map[string]bool, len(f.Phases))
	for _, p := range f.Phases {
		if p.Name == "" {
			return fmt.Errorf("benchfmt: rung %s: phase with empty name", f.Rung)
		}
		if seen[p.Name] {
			return fmt.Errorf("benchfmt: rung %s: duplicate phase %q", f.Rung, p.Name)
		}
		seen[p.Name] = true
		if p.DurationNS <= 0 {
			return fmt.Errorf("benchfmt: rung %s: phase %q duration_ns %d, want > 0", f.Rung, p.Name, p.DurationNS)
		}
	}
	for _, want := range requiredPhases {
		if !seen[want] {
			return fmt.Errorf("benchfmt: rung %s: missing required phase %q", f.Rung, want)
		}
	}
	if f.Refine.Iterations <= 0 {
		return fmt.Errorf("benchfmt: rung %s: refine.iterations %d, want > 0", f.Rung, f.Refine.Iterations)
	}
	if f.Refine.PerIterNS <= 0 {
		return fmt.Errorf("benchfmt: rung %s: refine.per_iter_ns %d, want > 0", f.Rung, f.Refine.PerIterNS)
	}
	if f.Refine.ProvPerIterNS < 0 {
		return fmt.Errorf("benchfmt: rung %s: refine.prov_per_iter_ns %d, want >= 0", f.Rung, f.Refine.ProvPerIterNS)
	}
	return nil
}

// ValidateLadder checks a set of bench files as a ladder: every file
// valid, rungs distinct, and — in rung order (S before M before L
// before XL) — topology router and trace counts strictly increasing.
// The monotonicity check is what catches a mis-sized rung config (or a
// stale committed file) that would make cross-rung scaling claims
// meaningless.
func ValidateLadder(files []*File) error {
	if len(files) == 0 {
		return fmt.Errorf("benchfmt: empty ladder")
	}
	byRung := make(map[int]*File, len(files))
	for _, f := range files {
		if err := f.Validate(); err != nil {
			return err
		}
		idx := topo.RungIndex(f.Rung)
		if prev, dup := byRung[idx]; dup {
			return fmt.Errorf("benchfmt: duplicate rung %q (%s)", f.Rung, prev.Rung)
		}
		byRung[idx] = f
	}
	var prev *File
	for _, idx := range ladderOrder(byRung) {
		f := byRung[idx]
		if prev != nil {
			if f.Topology.Routers <= prev.Topology.Routers {
				return fmt.Errorf("benchfmt: ladder not monotone: rung %s has %d routers, rung %s has %d",
					prev.Rung, prev.Topology.Routers, f.Rung, f.Topology.Routers)
			}
			if f.Topology.Traces <= prev.Topology.Traces {
				return fmt.Errorf("benchfmt: ladder not monotone: rung %s has %d traces, rung %s has %d",
					prev.Rung, prev.Topology.Traces, f.Rung, f.Topology.Traces)
			}
		}
		prev = f
	}
	return nil
}

// ladderOrder returns the present rung indices ascending.
func ladderOrder(byRung map[int]*File) []int {
	out := make([]int, 0, len(byRung))
	for i := 0; i < len(topo.RungNames()); i++ {
		if _, ok := byRung[i]; ok {
			out = append(out, i)
		}
	}
	return out
}

// Read loads and decodes one bench file (no validation; callers decide
// whether a single-file or ladder check applies).
func Read(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchfmt: %w", err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("benchfmt: decode %s: %w", path, err)
	}
	return &f, nil
}

// Write encodes f to path, indented for reviewable diffs, with a
// trailing newline so the committed artifact is a well-formed text
// file. The file is published atomically: a benchmark run killed
// mid-write must not leave a torn BENCH_*.json that a later
// -bench-compare silently trusts.
func Write(path string, f *File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("benchfmt: encode: %w", err)
	}
	data = append(data, '\n')
	if err := ckpt.AtomicWrite(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		return fmt.Errorf("benchfmt: %w", err)
	}
	return nil
}
