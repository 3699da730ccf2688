package bdrmapit

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// writeLines writes a JSONL file from lines that keep their newline.
func writeLines(t *testing.T, path string, lines []string) string {
	t.Helper()
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// corpusLines returns the test dataset's traceroute archive as lines,
// repeated until there are at least n of them: repeating a trace does
// not change the graph, and a file longer than one Builder chunk is what
// it takes to have traces handed on before a later record fails.
func corpusLines(t *testing.T, n int) []string {
	t.Helper()
	p, _ := dataset(t)
	data, err := os.ReadFile(p.Traceroutes)
	if err != nil {
		t.Fatal(err)
	}
	once := strings.SplitAfter(string(data), "\n")
	if once[len(once)-1] == "" {
		once = once[:len(once)-1]
	}
	lines := append([]string(nil), once...)
	for len(lines) < n {
		lines = append(lines, once...)
	}
	return lines
}

// TestErrorBudgetTable pins what a trace file that goes bad at record k
// of n does to a run, per failure policy. The outcomes were recorded
// from the loader that read every file into one slice before anything
// else ran (commit c14e2ab) and must not depend on how the corpus
// reaches the Builder: a file that fails contributes nothing when the
// budget lets the run continue, and the error names it otherwise.
func TestErrorBudgetTable(t *testing.T) {
	p, _ := dataset(t)
	dir := t.TempDir()
	lines := corpusLines(t, 9000) // more than two chunks of 4096
	n := len(lines)
	a := writeLines(t, filepath.Join(dir, "a.jsonl"), lines[:600])
	c := writeLines(t, filepath.Join(dir, "c.jsonl"), lines[600:1308])
	src := func(traces ...string) Sources {
		return Sources{
			TraceroutePaths:     traces,
			BGPRIBPaths:         []string{p.RIB},
			ASRelationshipPaths: []string{p.Relationships},
			AliasNodePaths:      []string{p.Aliases},
		}
	}
	survivors, err := Run(src(a, c), quiet(Options{}))
	if err != nil {
		t.Fatal(err)
	}
	want := annotationBytes(t, survivors)

	for _, k := range []int{1, 4500, n} {
		bad := append([]string(nil), lines...)
		bad[k-1] = `{"type":"trace","src":"not an address"` + "\n"
		b := writeLines(t, filepath.Join(dir, "b.jsonl"), bad)
		for _, tc := range []struct {
			name     string
			opts     Options
			survives bool
		}{
			{"budget0", Options{}, false},
			{"budget1", Options{MaxBadInputFiles: 1}, true},
			{"strict", Options{Strict: true, MaxBadInputFiles: 5}, false},
		} {
			res, err := Run(src(a, b, c), quiet(tc.opts))
			if !tc.survives {
				var se *SourceError
				if !errors.As(err, &se) {
					t.Errorf("k=%d %s: err = %v, want a *SourceError", k, tc.name, err)
				} else if se.Class != "traceroute" || se.Path != b {
					t.Errorf("k=%d %s: error names %s source %s, want traceroute %s", k, tc.name, se.Class, se.Path, b)
				}
				continue
			}
			if err != nil {
				t.Errorf("k=%d %s: %v", k, tc.name, err)
				continue
			}
			if got := res.Report.Counters["load.bad_input_files"]; got != 1 {
				t.Errorf("k=%d %s: load.bad_input_files = %d, want 1", k, tc.name, got)
			}
			if got := res.Report.Counters["load.traces"]; got != 1308 {
				t.Errorf("k=%d %s: load.traces = %d, want the 1308 of the two good files", k, tc.name, got)
			}
			if len(res.Report.Degradations) != 0 {
				t.Errorf("k=%d %s: a skipped required file is not a degradation: %+v", k, tc.name, res.Report.Degradations)
			}
			if len(res.Report.Warnings) != 1 || !strings.Contains(res.Report.Warnings[0], "bad input file 1 of 1 allowed") {
				t.Errorf("k=%d %s: warnings = %q", k, tc.name, res.Report.Warnings)
			}
			if !bytes.Equal(annotationBytes(t, res), want) {
				t.Errorf("k=%d %s: annotations differ from a run over the two good files", k, tc.name)
			}
		}
	}
}

// TestErrorBudgetSharedAcrossClasses: traceroute files spend the budget
// before RIBs do, whichever loader gets there first. With one bad file
// of each and a budget of one, the trace file is skipped and the run
// ends on the RIB; with the budget at zero it ends on the trace file.
func TestErrorBudgetSharedAcrossClasses(t *testing.T) {
	p, _ := dataset(t)
	dir := t.TempDir()
	lines := corpusLines(t, 1)
	good := writeLines(t, filepath.Join(dir, "good.jsonl"), lines[:400])
	bad := append([]string(nil), lines[400:800]...)
	bad[len(bad)-1] = "{\n"
	badTraces := writeLines(t, filepath.Join(dir, "bad.jsonl"), bad)
	src := Sources{
		TraceroutePaths: []string{good, badTraces},
		BGPRIBPaths:     []string{p.GroundTruth, p.RIB}, // the ground-truth file is no RIB
		AliasNodePaths:  []string{"/nonexistent/aliases.nodes"},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for i := 0; i < 50; i++ {
			for _, tc := range []struct {
				budget      int
				class, path string
			}{
				{0, "traceroute", badTraces},
				{1, "rib", p.GroundTruth},
			} {
				var warned bytes.Buffer
				_, err := Run(src, Options{MaxBadInputFiles: tc.budget, WarnWriter: &warned})
				var se *SourceError
				if !errors.As(err, &se) {
					t.Fatalf("GOMAXPROCS=%d run %d budget %d: err = %v, want a *SourceError", procs, i, tc.budget, err)
				}
				if se.Class != tc.class || se.Path != tc.path {
					t.Fatalf("GOMAXPROCS=%d run %d budget %d: error names %s source %s, want %s %s",
						procs, i, tc.budget, se.Class, se.Path, tc.class, tc.path)
				}
				// The run stopped before the alias file was reached, so
				// only the skips that came before the stop are announced.
				if n := strings.Count(warned.String(), "WARNING"); n != tc.budget {
					t.Fatalf("GOMAXPROCS=%d run %d budget %d: %d warning(s) written, want %d:\n%s",
						procs, i, tc.budget, n, tc.budget, warned.String())
				}
			}
		}
	}
	res, err := Run(src, quiet(Options{MaxBadInputFiles: 2}))
	if err != nil {
		t.Fatalf("budget 2 covers both bad files: %v", err)
	}
	if got := res.Report.Counters["load.bad_input_files"]; got != 2 {
		t.Errorf("load.bad_input_files = %d, want 2", got)
	}
	if len(res.Report.Warnings) != 2 ||
		!strings.Contains(res.Report.Warnings[0], "traceroute source") ||
		!strings.Contains(res.Report.Warnings[1], "rib source") {
		t.Errorf("skip warnings out of Sources order: %q", res.Report.Warnings)
	}
	if len(res.Report.Degradations) != 1 || res.Report.Degradations[0].Class != "alias" {
		t.Errorf("degradations = %+v, want the alias file alone", res.Report.Degradations)
	}
}
