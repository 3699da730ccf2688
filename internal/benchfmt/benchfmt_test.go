package benchfmt

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// valid returns a minimal schema-conforming bench file for rung with
// the given scale multiplier (so ladders can be synthesized).
func valid(rung string, scale int) *File {
	return &File{
		SchemaVersion: SchemaVersion,
		Rung:          rung,
		Seed:          42,
		Workers:       8,
		GoMaxProcs:    1,
		WallNS:        1e9,
		PeakRSSBytes:  64 << 20,
		Topology: Topology{
			ASes:            100 * scale,
			Routers:         1000 * scale,
			Interfaces:      3000 * scale,
			VPs:             10,
			Targets:         200 * scale,
			Traces:          2000 * scale,
			GraphRouters:    800 * scale,
			GraphInterfaces: 2500 * scale,
		},
		Phases: []Phase{
			{Name: "construct-graph", DurationNS: 5e8},
			{Name: "lasthop", DurationNS: 1e7},
			{Name: "refine", DurationNS: 4e8},
		},
		Refine: Refine{
			Iterations: 6,
			Converged:  true,
			PerIterNS:  6e7,
		},
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*File)
		wantErr string // substring; "" = valid
	}{
		{"valid", func(f *File) {}, ""},
		{"wrong version", func(f *File) { f.SchemaVersion = SchemaVersion + 1 }, "schema version"},
		{"zero version", func(f *File) { f.SchemaVersion = 0 }, "schema version"},
		{"unknown rung", func(f *File) { f.Rung = "XXL" }, "unknown rung"},
		{"empty rung", func(f *File) { f.Rung = "" }, "unknown rung"},
		{"no workers", func(f *File) { f.Workers = 0 }, "workers"},
		{"no gomaxprocs", func(f *File) { f.GoMaxProcs = 0 }, "gomaxprocs"},
		{"no wall clock", func(f *File) { f.WallNS = 0 }, "wall_ns"},
		{"no peak rss", func(f *File) { f.PeakRSSBytes = 0 }, "peak_rss_bytes"},
		{"no routers", func(f *File) { f.Topology.Routers = 0 }, "topology.routers"},
		{"no traces", func(f *File) { f.Topology.Traces = 0 }, "topology.traces"},
		{"no graph routers", func(f *File) { f.Topology.GraphRouters = 0 }, "topology.graph_routers"},
		{"no phases", func(f *File) { f.Phases = nil }, "missing required phase"},
		{"missing refine phase", func(f *File) { f.Phases = f.Phases[:2] }, `missing required phase "refine"`},
		{"unnamed phase", func(f *File) { f.Phases[0].Name = "" }, "empty name"},
		{"duplicate phase", func(f *File) { f.Phases[1].Name = "refine" }, "duplicate phase"},
		{"zero phase duration", func(f *File) { f.Phases[2].DurationNS = 0 }, "duration_ns"},
		{"no iterations", func(f *File) { f.Refine.Iterations = 0 }, "refine.iterations"},
		{"no per-iter cost", func(f *File) { f.Refine.PerIterNS = 0 }, "refine.per_iter_ns"},
		{"extra phase ok", func(f *File) { f.Phases = append(f.Phases, Phase{Name: "resolve", DurationNS: 1}) }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := valid("S", 1)
			tc.mutate(f)
			err := f.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate: %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate: %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestValidateLadder(t *testing.T) {
	cases := []struct {
		name    string
		files   []*File
		wantErr string
	}{
		{"empty", nil, "empty ladder"},
		{"single", []*File{valid("S", 1)}, ""},
		{"full", []*File{valid("S", 1), valid("M", 10), valid("L", 100)}, ""},
		{"out of order input ok", []*File{valid("L", 100), valid("S", 1), valid("M", 10)}, ""},
		{"duplicate rung", []*File{valid("S", 1), valid("S", 2)}, "duplicate rung"},
		{"case-insensitive duplicate", []*File{valid("S", 1), valid("s", 2)}, "duplicate rung"},
		{"non-monotone routers", []*File{valid("S", 10), valid("M", 10)}, "not monotone"},
		{"shrinking ladder", []*File{valid("S", 100), valid("M", 1)}, "not monotone"},
		{"invalid member", []*File{valid("S", 1), {SchemaVersion: SchemaVersion, Rung: "M"}}, "workers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateLadder(tc.files)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("ValidateLadder: %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("ValidateLadder: %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_S.json")
	want := valid("S", 1)
	if err := Write(path, want); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, want)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("Validate after round trip: %v", err)
	}
	if _, err := Read(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("Read of missing file succeeded")
	}
}
