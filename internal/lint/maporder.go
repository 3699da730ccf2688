package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Maporder guards the determinism invariant at the heart of the §6.3
// stopping condition: annotation and emission code must not let Go's
// randomized map iteration order leak into results. It flags every
// `range` over a map (including named map types like asn.Set) inside
// the refinement core, the sharding substrate, the telemetry layer, and
// the public API package, unless the loop matches
// one of the provably order-independent idioms below or the site carries
// a //lint:ignore maporder annotation explaining why order cannot leak.
//
// Recognized order-independent idioms:
//
//  1. collect-then-sort: the body is a single `s = append(s, …)` and the
//     statement immediately after the loop sorts s (sort.* / slices.Sort*).
//  2. map build: every statement stores into another map indexed by the
//     range key variable (distinct keys, so writes never collide) or
//     stores a constant (last-write-wins of identical values).
//  3. guarded accumulation: the body is a single if statement (no else)
//     whose branch never references the loop's key/value variables. The
//     branch then performs the same operations no matter which element
//     triggered it, so any visit order produces the same final state —
//     this covers existence flags (`found = true; break`), match
//     counting (`cover++`), and collecting an enclosing loop's variable.
var Maporder = &Analyzer{
	Name: "maporder",
	Doc:  "range over a map in deterministic-output code must be sorted, order-independent, or annotated",
	Applies: func(path string) bool {
		return anySegment(path, "internal/core", "internal/shard", "internal/obs") ||
			!hasSlash(path) // the module root: the public API and its emission paths
	},
	Run: runMaporder,
}

func hasSlash(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == '/' {
			return true
		}
	}
	return false
}

func runMaporder(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			body, ok := blockOf(n)
			if !ok {
				return true
			}
			for i, stmt := range body {
				rs, ok := stmt.(*ast.RangeStmt)
				if !ok || !isMapType(p.TypeOf(rs.X)) {
					continue
				}
				var next ast.Stmt
				if i+1 < len(body) {
					next = body[i+1]
				}
				if mapRangeOrderIndependent(p, rs, next) {
					continue
				}
				p.Reportf(rs.Pos(),
					"range over map %s has nondeterministic order; iterate sorted keys, use an order-independent idiom, or annotate //lint:ignore maporder <reason>",
					exprString(rs.X))
			}
			return true
		})
	}
}

// blockOf returns the statement list of any node that owns one, so range
// statements are always visited alongside their following sibling.
func blockOf(n ast.Node) ([]ast.Stmt, bool) {
	switch n := n.(type) {
	case *ast.BlockStmt:
		return n.List, true
	case *ast.CaseClause:
		return n.Body, true
	case *ast.CommClause:
		return n.Body, true
	}
	return nil, false
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func mapRangeOrderIndependent(p *Pass, rs *ast.RangeStmt, next ast.Stmt) bool {
	key := identOf(rs.Key)
	val := identOf(rs.Value)
	if isCollectThenSort(p, rs, next) {
		return true
	}
	if isMapBuild(p, rs, key) {
		return true
	}
	if isExistenceCheck(rs, key, val) {
		return true
	}
	return false
}

func identOf(e ast.Expr) *ast.Ident {
	id, _ := e.(*ast.Ident)
	if id != nil && id.Name == "_" {
		return nil
	}
	return id
}

// isCollectThenSort matches idiom 1: `for k := range m { s = append(s, …) }`
// immediately followed by a sort of s.
func isCollectThenSort(p *Pass, rs *ast.RangeStmt, next ast.Stmt) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	dst := exprString(as.Lhs[0])
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
		return false
	}
	if len(call.Args) == 0 || exprString(call.Args[0]) != dst {
		return false
	}
	return sortsSlice(p, next, dst)
}

// sortsSlice reports whether stmt is a call into sort or slices with an
// argument mentioning the collected slice.
func sortsSlice(p *Pass, stmt ast.Stmt, dst string) bool {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := p.Pkg.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	if pkg := obj.Pkg().Path(); pkg != "sort" && pkg != "slices" {
		return false
	}
	for _, arg := range call.Args {
		if strings.Contains(exprString(arg), dst) {
			return true
		}
	}
	return false
}

// isMapBuild matches idiom 2: every statement stores into a map (or
// deletes from one) indexed by the range key — distinct iteration keys,
// so no write ever observes another write's order — or stores a
// constant, where colliding writes are identical and last-write-wins
// cannot differ between orders.
func isMapBuild(p *Pass, rs *ast.RangeStmt, key *ast.Ident) bool {
	if len(rs.Body.List) == 0 {
		return false
	}
	for _, stmt := range rs.Body.List {
		switch s := stmt.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				return false
			}
			ix, ok := s.Lhs[0].(*ast.IndexExpr)
			if !ok || !isMapType(p.TypeOf(ix.X)) {
				return false
			}
			keyed := false
			if id := identOf(ix.Index); id != nil && key != nil && id.Name == key.Name {
				keyed = true
			}
			if !keyed && !isConstExpr(s.Rhs[0]) {
				return false
			}
		case *ast.ExprStmt:
			call, ok := s.X.(*ast.CallExpr)
			if !ok {
				return false
			}
			fn, ok := call.Fun.(*ast.Ident)
			if !ok || fn.Name != "delete" || len(call.Args) != 2 {
				return false
			}
			if id := identOf(call.Args[1]); id == nil || key == nil || id.Name != key.Name {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// isConstExpr reports whether e is a basic literal or one of the
// predeclared constant identifiers.
func isConstExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.BasicLit:
		return true
	case *ast.Ident:
		return e.Name == "true" || e.Name == "false" || e.Name == "nil"
	}
	return false
}

// isExistenceCheck matches idiom 3 (guarded accumulation): a single if
// statement (no else, no init) whose body never references the loop's
// key/value variables. The condition may inspect the element freely; the
// branch then executes the exact same statements whichever element
// triggered it, so the multiset of performed operations — and therefore
// the final state — is identical under every iteration order.
func isExistenceCheck(rs *ast.RangeStmt, key, val *ast.Ident) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	ifs, ok := rs.Body.List[0].(*ast.IfStmt)
	if !ok || ifs.Else != nil || ifs.Init != nil || len(ifs.Body.List) == 0 {
		return false
	}
	for _, s := range ifs.Body.List {
		if mentionsIdent(s, key) || mentionsIdent(s, val) {
			return false
		}
	}
	return true
}

// mentionsIdent reports whether n references the identifier id by name.
func mentionsIdent(n ast.Node, id *ast.Ident) bool {
	if id == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if x, ok := c.(*ast.Ident); ok && x.Name == id.Name {
			found = true
		}
		return !found
	})
	return found
}
