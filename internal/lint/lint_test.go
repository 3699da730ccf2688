package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func TestSelect(t *testing.T) {
	all, err := Select("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(All()) {
		t.Fatalf("Select(\"\") = %d analyzers, want %d", len(all), len(All()))
	}
	two, err := Select("maporder, noclock")
	if err != nil {
		t.Fatal(err)
	}
	if len(two) != 2 || two[0].Name != "maporder" || two[1].Name != "noclock" {
		t.Fatalf("Select(maporder,noclock) = %v", checkNames(two))
	}
	if _, err := Select("nosuchcheck"); err == nil {
		t.Fatal("Select(nosuchcheck) did not error")
	}
}

// parsePkg builds a Package from source without type-checking, for
// analyzers (and framework plumbing) that only need syntax.
func parsePkg(t *testing.T, importPath, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, importPath+"/test.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{
		ImportPath: importPath,
		Fset:       fset,
		Files:      []*ast.File{f},
		Stdlib:     map[string]bool{"sort": true, "sync": true, "time": true},
	}
}

func TestLayeringCmdImport(t *testing.T) {
	// cmd/* packages are package main and cannot be imported for real,
	// so the engine-must-not-import-frontends rule is exercised on a
	// parse-only package.
	pkg := parsePkg(t, "repro/internal/core", `package core

import (
	_ "repro/cmd/bdrmapit"
	_ "sort"
)
`)
	diags, _ := RunAudited([]*Package{pkg}, []*Analyzer{Layering})
	if len(diags) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "command packages") {
		t.Fatalf("unexpected message: %s", diags[0].Message)
	}
}

func TestLayeringStdlibOnly(t *testing.T) {
	pkg := parsePkg(t, "repro/internal/shard", `package shard

import (
	_ "repro/internal/asn"
	_ "sync"
)
`)
	diags, _ := RunAudited([]*Package{pkg}, []*Analyzer{Layering})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "dependency-free") {
		t.Fatalf("got %v, want one dependency-free finding", diags)
	}
}

func TestSuppressionPlacement(t *testing.T) {
	// The annotation suppresses on its own line and the line below —
	// never two lines down.
	pkg := parsePkg(t, "repro/internal/core", `package core

import (
	//lint:ignore layering reason: annotation directly above works
	_ "repro/cmd/a"
	_ "repro/cmd/b" //lint:ignore layering reason: same-line annotation works
	//lint:ignore layering reason: two lines up does not reach

	_ "repro/cmd/c"
)
`)
	diags, _ := RunAudited([]*Package{pkg}, []*Analyzer{Layering})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "repro/cmd/c") {
		t.Fatalf("got %v, want exactly the cmd/c finding", diags)
	}
}

func TestSuppressionWrongCheckName(t *testing.T) {
	pkg := parsePkg(t, "repro/internal/core", `package core

import (
	//lint:ignore noclock wrong check name does not suppress layering
	_ "repro/cmd/a"
)
`)
	diags, _ := RunAudited([]*Package{pkg}, []*Analyzer{Layering})
	if len(diags) != 1 {
		t.Fatalf("got %v, want the finding to survive a mismatched check name", diags)
	}
}

func TestBadIgnores(t *testing.T) {
	pkg := parsePkg(t, "repro/internal/core", `package core

//lint:ignore maporder
func f() {}

//lint:ignore maporder a documented reason
func g() {}
`)
	bad := BadIgnores([]*Package{pkg})
	if len(bad) != 1 {
		t.Fatalf("got %d malformed-annotation findings, want 1: %v", len(bad), bad)
	}
	if bad[0].Check != "ignore" || !strings.Contains(bad[0].Message, "reason") {
		t.Fatalf("unexpected finding: %v", bad[0])
	}
}

func TestRunOrdering(t *testing.T) {
	pkg := parsePkg(t, "repro/internal/obs", `package obs

import (
	_ "time"
	_ "repro/internal/asn"
	_ "repro/internal/topo"
)
`)
	diags, _ := RunAudited([]*Package{pkg}, []*Analyzer{Layering})
	if len(diags) != 2 {
		t.Fatalf("got %d findings, want 2", len(diags))
	}
	if diags[0].Pos.Line > diags[1].Pos.Line {
		t.Fatalf("findings not sorted by line: %v", diags)
	}
}

func TestPathHasSegment(t *testing.T) {
	cases := []struct {
		path, seg string
		want      bool
	}{
		{"repro/internal/core", "internal/core", true},
		{"internal/core", "internal/core", true},
		{"repro/internal/corex", "internal/core", false},
		{"repro/internal/core/sub", "internal/core", true},
		{"fixture/cmd/tool", "cmd", true},
		{"repro/cmdline", "cmd", false},
	}
	for _, c := range cases {
		if got := pathHasSegment(c.path, c.seg); got != c.want {
			t.Errorf("pathHasSegment(%q, %q) = %v, want %v", c.path, c.seg, got, c.want)
		}
	}
}
