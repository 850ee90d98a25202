package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// This file is the small intra-package call-graph machinery of the
// hotpath-alloc analyzer: it starts from a set of root function bodies
// and needs every package-local function reachable from them, in a
// deterministic order. The walk is intentionally intra-package —
// cross-package hot callees (internal/sim) are governed by their own
// tiers' analyzers — and intentionally static: a call through a function
// value or interface is not followed, which is the conservative
// direction (it may miss, never misattribute).

// funcDecls maps each package-level function or method object to its
// declaration, the node table a call-graph walk resolves callees against.
func funcDecls(pkg *Package) map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				out[fn] = fd
			}
		}
	}
	return out
}

// callees lists the package-local functions and methods invoked anywhere
// inside body, ordered by source position so the call-graph expansion is
// deterministic run to run.
func callees(pkg *Package, body ast.Node) []*types.Func {
	seen := make(map[*types.Func]bool)
	var out []*types.Func
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var id *ast.Ident
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			id = fun
		case *ast.SelectorExpr:
			id = fun.Sel
		default:
			return true
		}
		fn, ok := pkg.Info.Uses[id].(*types.Func)
		if !ok || fn.Pkg() != pkg.Types || seen[fn] {
			return true
		}
		seen[fn] = true
		out = append(out, fn)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// reached is one function body found reachable from a call-graph root.
type reached struct {
	// fn names the function; nil for a root function literal.
	fn *types.Func
	// body is the function's block statement.
	body *ast.BlockStmt
}

// reachableFrom expands the intra-package call graph breadth-first from
// the given root bodies. skip prunes named functions (and everything only
// reachable through them) from the walk; it may be nil.
func reachableFrom(pkg *Package, decls map[*types.Func]*ast.FuncDecl, roots []reached, skip func(*types.Func) bool) []reached {
	visited := make(map[*types.Func]bool)
	out := append([]reached(nil), roots...)
	for _, r := range roots {
		if r.fn != nil {
			visited[r.fn] = true
		}
	}
	for i := 0; i < len(out); i++ {
		for _, fn := range callees(pkg, out[i].body) {
			if visited[fn] || (skip != nil && skip(fn)) {
				continue
			}
			visited[fn] = true
			if fd := decls[fn]; fd != nil {
				out = append(out, reached{fn: fn, body: fd.Body})
			}
		}
	}
	return out
}
