package lint

import (
	"go/ast"
	"go/types"
)

// Hotpath makes "this function allocates nothing" a checked contract
// instead of a benchmark observation. The refinement inner loop runs
// per router per iteration over millions of interfaces (§7); its
// per-iteration cost budget was bought by moving every allocation into
// reusable per-shard scratch, and a single innocent-looking fmt call or
// map literal reintroduced under maintenance silently claws the win
// back — a regression the benchmark ladder only catches after the fact,
// on the machine that happens to run it.
//
// A function marked //lint:hotpath (on the line above the declaration
// or inside its doc comment) may not contain:
//
//   - map or slice composite literals, make, or new — direct heap
//     allocations;
//   - append into storage that does not derive from a parameter or
//     receiver — growing locally-allocated storage allocates on every
//     call, while appending into caller-owned scratch (`out := dst[:0]`,
//     `sc.tied = append(sc.tied, v)`) reuses capacity across calls;
//   - calls into fmt — every fmt call boxes its operands;
//   - string concatenation — each + builds a fresh string;
//   - capturing function literals — a closure over local state escapes
//     to the heap along with everything it captures.
//
// Sites that are provably cold (a once-per-run grow path) carry a
// //lint:ignore hotpath <reason> annotation.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "functions marked //lint:hotpath must contain no allocating constructs",
	Run:  runHotpath,
}

func runHotpath(p *Pass) {
	lines := directiveLines(p.Pkg, "hotpath")
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotpathMarked(p, fd, lines) {
				continue
			}
			checkHotpathFunc(p, fd)
		}
	}
}

// isHotpathMarked reports whether fd carries the //lint:hotpath
// directive: in its doc comment group or on the line directly above the
// declaration (the doc position when there is no prose).
func isHotpathMarked(p *Pass, fd *ast.FuncDecl, lines map[string]map[int]string) bool {
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			if _, ok := cutDirective(c.Text, "//lint:hotpath"); ok {
				return true
			}
		}
	}
	pos := p.Pkg.Fset.Position(fd.Pos())
	if m := lines[pos.Filename]; m != nil {
		if _, ok := m[pos.Line-1]; ok {
			return true
		}
	}
	return false
}

func checkHotpathFunc(p *Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	df := newDataflow(p.Pkg.Info, fd)
	owned := paramObjs(p.Pkg.Info, fd.Recv, fd.Type.Params)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			t := p.TypeOf(n)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map:
				p.Reportf(n.Pos(), "hotpath %s allocates a map literal; hoist it into per-shard scratch or annotate //lint:ignore hotpath <reason>", name)
			case *types.Slice:
				p.Reportf(n.Pos(), "hotpath %s allocates a slice literal; hoist it into per-shard scratch or annotate //lint:ignore hotpath <reason>", name)
			}
		case *ast.CallExpr:
			checkHotpathCall(p, df, owned, name, n)
		case *ast.BinaryExpr:
			if n.Op.String() == "+" && isStringType(p.TypeOf(n.X)) {
				p.Reportf(n.Pos(), "hotpath %s concatenates strings (allocates per +); precompute the string outside the loop or annotate //lint:ignore hotpath <reason>", name)
			}
		case *ast.AssignStmt:
			if n.Tok.String() == "+=" && len(n.Lhs) == 1 && isStringType(p.TypeOf(n.Lhs[0])) {
				p.Reportf(n.Pos(), "hotpath %s concatenates strings (allocates per +=); precompute the string outside the loop or annotate //lint:ignore hotpath <reason>", name)
			}
		case *ast.FuncLit:
			if capturesState(p, n) {
				p.Reportf(n.Pos(), "hotpath %s builds a capturing closure (escapes to the heap with its captures); pass the state explicitly or annotate //lint:ignore hotpath <reason>", name)
			}
		}
		return true
	})
}

// checkHotpathCall flags the allocating calls: make/new, fmt.*, and
// append into storage that does not derive from caller-owned scratch.
func checkHotpathCall(p *Pass, df *dataflow, owned map[types.Object]bool, name string, call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch id.Name {
		case "make", "new":
			if isBuiltin(p, id) {
				p.Reportf(call.Pos(), "hotpath %s calls %s (heap allocation); reuse caller-owned scratch or annotate //lint:ignore hotpath <reason>", name, id.Name)
			}
			return
		case "append":
			if !isBuiltin(p, id) || len(call.Args) == 0 {
				return
			}
			if df.exprDerives(call.Args[0], owned) {
				return // caller-owned storage: amortized-free reuse
			}
			p.Reportf(call.Pos(), "hotpath %s appends into storage not derived from a parameter or receiver (unbounded growth allocates per call); append into caller-owned scratch or annotate //lint:ignore hotpath <reason>", name)
			return
		}
	}
	if fn := calleeFunc(p.Pkg.Info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		p.Reportf(call.Pos(), "hotpath %s calls fmt.%s (boxes every operand); move formatting off the hot path or annotate //lint:ignore hotpath <reason>", name, fn.Name())
	}
}

// isBuiltin reports whether id resolves to a predeclared builtin
// (rather than a local function shadowing the name).
func isBuiltin(p *Pass, id *ast.Ident) bool {
	_, ok := p.Pkg.Info.Uses[id].(*types.Builtin)
	return ok
}

// capturesState reports whether lit references any variable declared
// outside it; a capture-free literal compiles to a static function
// value and allocates nothing.
func capturesState(p *Pass, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured {
			return !captured
		}
		if v, ok := p.Pkg.Info.Uses[id].(*types.Var); ok && !v.IsField() {
			if !declaredWithin(v, lit) && !isPackageLevel(v) {
				captured = true
			}
		}
		return !captured
	})
	return captured
}

// isPackageLevel reports whether v is a package-level variable (those
// are static, not captured).
func isPackageLevel(v *types.Var) bool {
	return v.Parent() != nil && v.Parent().Parent() == types.Universe
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
