// Package lint is bdrmapIT's project-specific static-analysis framework:
// a zero-dependency (go/ast + go/types, no x/tools) analyzer API plus the
// suite of checkers that turn the pipeline's determinism, concurrency,
// and telemetry invariants into machine-enforced rules.
//
// The refinement loop terminates by detecting a repeated annotation
// state (paper §6.3); that only works when every iteration is a pure
// function of the previous one. A single `range` over an unsorted map in
// an annotation or emission path, a wall-clock read feeding an
// inference, or a telemetry method that panics on the nil no-op Recorder
// silently breaks guarantees the rest of the system is built on. Each
// analyzer here guards one of those invariants; `cmd/bdrmapitlint` wires
// the suite into `make ci`.
//
// Findings are suppressed site-by-site with an explanatory annotation:
//
//	//lint:ignore <check> <reason>
//
// placed on, or on the line directly above, the offending statement. The
// reason is mandatory — the point of the annotation is to move "why this
// is safe" out of reviewers' heads and into the code.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the check that fired, and a
// human-readable message.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Check, d.Message)
}

// Pass is one analyzer's view of one package. Analyzers report findings
// through Reportf; the runner handles suppression and ordering.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:     p.Pkg.Fset.Position(pos),
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Pkg.Info.TypeOf(e)
}

// Analyzer is one named check.
type Analyzer struct {
	// Name identifies the check in diagnostics, -checks flags, and
	// lint:ignore annotations.
	Name string
	// Doc is a one-line description of the invariant the check guards.
	Doc string
	// Applies reports whether the check runs on the package with the
	// given import path; nil means every package. Matching is on path
	// segments, so fixture packages with synthetic import paths (e.g.
	// "fixture/internal/core") exercise the same scoping as real ones.
	Applies func(importPath string) bool
	// Run inspects the package and reports findings on the pass.
	Run func(*Pass)
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Atomicwrite,
		Ctxflow,
		Erraudit,
		Hotpath,
		Layering,
		Maporder,
		Nilrecorder,
		Noclock,
		Shardsafe,
	}
}

// Select resolves a comma-separated list of check names against the full
// suite; an empty list selects everything.
func Select(names string) ([]*Analyzer, error) {
	all := All()
	if names == "" {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown check %q (have %s)", name, strings.Join(checkNames(all), ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

func checkNames(as []*Analyzer) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Name
	}
	return out
}

// RunAudited executes analyzers over pkgs, drops suppressed findings,
// and returns the rest ordered by file, line, and check — a
// deterministic report for a determinism linter. It also audits the
// ignores: the second return value holds one "ignoreaudit" diagnostic
// per stale //lint:ignore annotation
// — a suppression whose named check ran on its package and produced no
// finding at that site. A stale annotation is worse than none: it
// documents a hazard that no longer exists, and it will silently eat
// the next real finding that lands on its line. Annotations naming
// checks outside `analyzers` are left alone (they cannot be judged on
// this run), so a partial -checks run never mass-reports staleness.
func RunAudited(pkgs []*Package, analyzers []*Analyzer) (diags, stale []Diagnostic) {
	selected := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		selected[a.Name] = true
	}
	for _, pkg := range pkgs {
		ignores := collectIgnores(pkg)
		applied := make(map[string]bool, len(analyzers))
		for _, a := range analyzers {
			if a.Applies != nil && !a.Applies(pkg.ImportPath) {
				continue
			}
			applied[a.Name] = true
			pass := &Pass{Analyzer: a, Pkg: pkg}
			a.Run(pass)
			for _, d := range pass.diags {
				if !ignores.cover(d) {
					diags = append(diags, d)
				}
			}
		}
		for key, ig := range ignores {
			if ig.used || !selected[key.check] || !applied[key.check] {
				continue
			}
			stale = append(stale, Diagnostic{
				Pos:   ig.pos,
				Check: "ignoreaudit",
				Message: fmt.Sprintf("stale //lint:ignore %s: the check produced no finding at this site; delete the annotation",
					key.check),
			})
		}
	}
	sortDiags(diags)
	sortDiags(stale)
	return diags, stale
}

func sortDiags(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}

// ignoreKey locates one suppression: a check name at a file:line.
type ignoreKey struct {
	file  string
	line  int
	check string
}

// ignoreEntry is one annotation's position plus whether any finding
// actually needed it this run — the signal the ignore audit keys on.
type ignoreEntry struct {
	pos  token.Position
	used bool
}

type ignoreSet map[ignoreKey]*ignoreEntry

// cover reports whether d is suppressed by an annotation on its own
// line or the line directly above it, marking the matching annotation
// as earning its keep.
func (s ignoreSet) cover(d Diagnostic) bool {
	for _, key := range []ignoreKey{
		{d.Pos.Filename, d.Pos.Line, d.Check},
		{d.Pos.Filename, d.Pos.Line - 1, d.Check},
	} {
		if e, ok := s[key]; ok {
			e.used = true
			return true
		}
	}
	return false
}

// collectIgnores scans pkg's comments for lint:ignore annotations.
// Malformed annotations (no check name, or no reason) are themselves
// findings — a suppression without a documented reason defeats its
// purpose — reported via the synthetic check name "ignore".
func collectIgnores(pkg *Package) ignoreSet {
	out := make(ignoreSet)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) < 2 {
					// Keep malformed annotations visible: an entry under
					// the reserved "ignore" check never matches a real
					// diagnostic, and the runner's callers surface it.
					continue
				}
				for _, check := range strings.Split(fields[0], ",") {
					out[ignoreKey{pos.Filename, pos.Line, check}] = &ignoreEntry{pos: pos}
				}
			}
		}
	}
	return out
}

// BadIgnores returns a diagnostic for every malformed lint:ignore
// annotation in pkgs: missing check name or missing reason.
func BadIgnores(pkgs []*Package) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
					if !ok {
						continue
					}
					if len(strings.Fields(text)) < 2 {
						out = append(out, Diagnostic{
							Pos:     pkg.Fset.Position(c.Pos()),
							Check:   "ignore",
							Message: "malformed annotation: want //lint:ignore <check> <reason>",
						})
					}
				}
			}
		}
	}
	return out
}

// exprString renders an expression for diagnostics.
func exprString(e ast.Expr) string { return types.ExprString(e) }

// pathHasSegment reports whether sub appears in path as a consecutive
// run of slash-separated segments ("internal/core" matches
// "repro/internal/core" but not "repro/internal/corex").
func pathHasSegment(path, sub string) bool {
	if path == sub {
		return true
	}
	if strings.HasPrefix(path, sub+"/") || strings.HasSuffix(path, "/"+sub) {
		return true
	}
	return strings.Contains(path, "/"+sub+"/")
}

// anySegment reports whether any of subs matches path per pathHasSegment.
func anySegment(path string, subs ...string) bool {
	for _, s := range subs {
		if pathHasSegment(path, s) {
			return true
		}
	}
	return false
}
