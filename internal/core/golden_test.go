package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// goldenEnv builds a fixed scenario touching several heuristics at
// once — vote majorities, an unannounced chain, an IXP crossing, a
// reallocated prefix, and a hidden AS — so the golden file pins a wide
// slice of the inference surface.
func goldenEnv(t *testing.T) *testEnv {
	e := newEnv(t)
	e.announce("1.0.0.0/16", 100) // provider aggregate
	e.announce("2.0.0.0/24", 200)
	e.announce("3.0.0.0/24", 300)
	e.announce("5.0.0.0/24", 500)
	e.ixpPrefix("11.0.0.0/24")
	e.rels.AddP2C(100, 200)
	e.rels.AddP2C(100, 300)
	e.rels.AddP2C(200, 300)
	e.rels.AddP2P(100, 500)

	// Vote-majority border router.
	e.trace("2.0.0.91", "1.0.0.1", "1.0.0.9", "2.0.0.1", "2.0.0.91/e")
	e.trace("2.0.0.92", "1.0.0.1", "1.0.0.9", "2.0.0.2", "2.0.0.92/e")
	// Unannounced chain toward 500.
	e.trace("5.0.0.99", "1.0.0.2", "9.9.9.1", "9.9.9.2", "9.9.9.3")
	// IXP crossing.
	e.trace("2.0.0.99", "1.0.0.3", "1.0.0.8", "11.0.0.2", "2.0.0.50")
	// Reallocated prefix: customer 300 numbered from 100's aggregate.
	e.trace("3.0.0.99", "1.0.0.4", "1.0.0.7", "1.0.5.1", "3.0.0.1", "3.0.0.99/e")
	e.trace("3.0.0.98", "1.0.0.5", "1.0.0.7", "1.0.5.5", "3.0.0.2", "3.0.0.98/e")
	return e
}

// dumpAnnotations serializes the final state in the published tool's
// annotation format plus loop metadata.
func dumpAnnotations(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# iterations=%d converged=%v cycle=%d\n",
		res.Iterations, res.Converged, res.CycleLength)
	for _, i := range res.Graph.Interfaces {
		fmt.Fprintf(&b, "%s %d %d\n", i.Addr, uint32(i.Router.Annotation), uint32(i.Annotation))
	}
	return b.String()
}

// TestGoldenAnnotations pins the complete annotation output of the
// fixed scenario: the serial and parallel engines must both reproduce
// testdata/golden_annotations.txt exactly, so a future refactor cannot
// silently change inferences. Regenerate deliberately with
// `go test ./internal/core -run TestGoldenAnnotations -update`.
func TestGoldenAnnotations(t *testing.T) {
	path := filepath.Join("testdata", "golden_annotations.txt")
	for _, workers := range []int{1, 4} {
		e := goldenEnv(t)
		res := e.run(Options{Workers: workers})
		got := dumpAnnotations(res)

		if *updateGolden && workers == 1 {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with -update to create): %v", err)
		}
		if got != string(want) {
			t.Errorf("workers=%d: annotations diverge from golden file\n--- got ---\n%s--- want ---\n%s",
				workers, got, want)
		}
	}
}
