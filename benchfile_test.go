package bdrmapit

// Regression gate for the committed benchmark-ladder artifacts: every
// BENCH_<rung>.json at the repository root must satisfy the current
// benchfmt schema and, as a set, form a coherent ladder (distinct
// rungs, monotonically growing topology and campaign). A schema bump
// without regenerated artifacts, a hand-edited number, or a mis-sized
// rung config fails here instead of surfacing as incomparable numbers
// three commits later.

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/benchfmt"
	"repro/internal/topo"
)

func TestCommittedBenchArtifacts(t *testing.T) {
	paths, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no BENCH_*.json artifacts at the repository root; run `make bench` and commit the output")
	}
	sort.Strings(paths)
	files := make([]*benchfmt.File, 0, len(paths))
	for _, p := range paths {
		f, err := benchfmt.Read(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if want := "BENCH_" + f.Rung + ".json"; filepath.Base(p) != want {
			t.Errorf("%s records rung %q; want file name %s", p, f.Rung, want)
		}
		files = append(files, f)
	}
	if err := benchfmt.ValidateLadder(files); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		// Decision-provenance collection must stay effectively free: the
		// S and M artifacts carry the measured comparison, and the M rung
		// (large enough that the measurement is not noise-bound) is the
		// ≤5% overhead acceptance gate. L predates the measurement and is
		// exempt until its scheduled regeneration — at ~35 min a run it
		// is not regenerated per-change.
		if f.Rung == "S" || f.Rung == "M" {
			if f.Refine.ProvPerIterNS <= 0 {
				t.Errorf("rung %s: no provenance comparison recorded (regenerate without -skip-provenance)", f.Rung)
			}
			if f.Rung == "M" && f.Refine.ProvOverheadPct > 5 {
				t.Errorf("rung M: provenance overhead %.1f%% per iteration, budget is 5%%", f.Refine.ProvOverheadPct)
			}
		}
	}
	// The ladder must cover at least S, M, and L; XL stays manual.
	have := make(map[string]bool, len(files))
	for _, f := range files {
		have[f.Rung] = true
	}
	for _, rung := range topo.RungNames()[:3] {
		if !have[rung] {
			t.Errorf("committed ladder is missing rung %s", rung)
		}
	}
}

// TestDesignInventoryListsEveryPackageDir keeps DESIGN.md §3 a map of
// the repository as it is: every directory under internal/ and cmd/ must
// have an entry of its own — a line of the inventory block, under its
// parent's heading, that starts with its name.
func TestDesignInventoryListsEveryPackageDir(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(data), "\n## 3. Module inventory\n")
	if !ok {
		t.Fatal("DESIGN.md has no \"## 3. Module inventory\" section")
	}
	inventory, _, _ := strings.Cut(rest, "\n## ")
	listed := make(map[string]bool)
	parent := ""
	for _, line := range strings.Split(inventory, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || !strings.HasSuffix(f[0], "/") {
			continue
		}
		switch len(line) - len(strings.TrimLeft(line, " ")) {
		case 2:
			parent = f[0]
		case 4:
			name, _, _ := strings.Cut(f[0], "/") // baseline/bdrmap/ lists baseline
			listed[parent+name] = true
		}
	}
	for _, top := range []string{"internal", "cmd"} {
		entries, err := os.ReadDir(top)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() && !listed[top+"/"+e.Name()] {
				t.Errorf("DESIGN.md §3 does not list %s/%s", top, e.Name())
			}
		}
	}
}
