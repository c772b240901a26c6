// detlint: the determinism rules. The campaign engine promises
// bit-identical reports for a given binary and configuration — across
// worker counts, shard decompositions, and cache replay — so the
// packages on its merge/export paths must not let Go's randomized map
// iteration order, the wall clock, or a PRNG reach any result.
package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// allConstant reports whether every expression is a literal or the
// predeclared true/false.
func allConstant(exprs []ast.Expr) bool {
	for _, e := range exprs {
		switch x := e.(type) {
		case *ast.BasicLit:
		case *ast.Ident:
			if x.Name != "true" && x.Name != "false" {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// detlint runs the three determinism rules over one package.
func detlint(p *pkg) []string {
	var findings []string
	for _, f := range p.files {
		findings = append(findings, checkImports(p, f)...)
		findings = append(findings, checkWallClock(p, f)...)
		findings = append(findings, checkMapRanges(p, f)...)
	}
	return findings
}

// checkImports flags math/rand: a deterministic package has no
// legitimate use for a PRNG — generators that must look random (fuzz
// variants, oracle inputs) derive from explicit seeds with local
// mixers instead.
func checkImports(p *pkg, f *ast.File) []string {
	var findings []string
	for _, spec := range f.Imports {
		path := strings.Trim(spec.Path.Value, `"`)
		if path != "math/rand" && path != "math/rand/v2" {
			continue
		}
		if p.allowed("mathrand", spec) {
			continue
		}
		findings = append(findings, p.findingAt(spec, "mathrand",
			"import of %s in a deterministic package", path))
	}
	return findings
}

// checkWallClock flags time.Now calls. Elapsed-time reporting is the
// one sanctioned use (the exporters strip those fields before any
// determinism comparison) and marks itself with `//lint:allow
// wallclock`.
func checkWallClock(p *pkg, f *ast.File) []string {
	timeName := ""
	for _, spec := range f.Imports {
		if strings.Trim(spec.Path.Value, `"`) == "time" {
			timeName = importName(spec)
		}
	}
	if timeName == "" {
		return nil
	}
	var findings []string
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Now" {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || id.Name != timeName {
			return true
		}
		// A shadowing local named like the import is not the package.
		if obj := p.info.Uses[id]; obj != nil {
			if _, isPkg := obj.(*types.PkgName); !isPkg {
				return true
			}
		}
		if !p.allowed("wallclock", sel) {
			findings = append(findings, p.findingAt(sel, "wallclock",
				"time.Now in a deterministic package (annotate elapsed-time reporting with lint:allow wallclock)"))
		}
		return true
	})
	return findings
}

// checkMapRanges flags `for … range m` over a map unless the loop
// cannot leak iteration order: either its body is order-free (all its
// effects are map writes, so the result is the same in any order), or
// the enclosing function visibly sorts after the loop (the repo's
// collect-then-sort idiom), or a lint:allow directive vouches for it.
func checkMapRanges(p *pkg, f *ast.File) []string {
	var findings []string
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok || !isMapType(p, rng.X) {
				return true
			}
			if p.allowed("maprange", rng) || orderFreeBody(rng.Body) || sortsAfter(fd, rng) {
				return true
			}
			findings = append(findings, p.findingAt(rng, "maprange",
				"map iteration order reaches the result: sort the keys first, or collect and sort after the loop"))
			return true
		})
	}
	return findings
}

// isMapType reports whether the expression type-checked to a map.
// Stub imports leave expressions of imported types unresolved; those
// are skipped, which is the permissive direction for a lint.
func isMapType(p *pkg, e ast.Expr) bool {
	t := p.info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// orderFreeBody reports whether every effect in the loop body is a
// keyed write (m[k] = v, m[k]++, delete(m, k)) — commutative across
// iterations, so the iteration order cannot reach the result.
// Conditionals recurse; any other statement (appends, calls, sends,
// returns) is treated as order-sensitive.
func orderFreeBody(body *ast.BlockStmt) bool {
	var free func(ast.Stmt) bool
	free = func(s ast.Stmt) bool {
		switch st := s.(type) {
		case *ast.AssignStmt:
			// A constant store (found = true) is idempotent, so any
			// iteration order produces the same value.
			if st.Tok == token.ASSIGN && len(st.Rhs) == len(st.Lhs) && allConstant(st.Rhs) {
				return true
			}
			for _, lhs := range st.Lhs {
				if _, ok := lhs.(*ast.IndexExpr); !ok {
					return false
				}
			}
			return true
		case *ast.IncDecStmt:
			_, ok := st.X.(*ast.IndexExpr)
			return ok
		case *ast.ExprStmt:
			call, ok := st.X.(*ast.CallExpr)
			if !ok {
				return false
			}
			id, ok := call.Fun.(*ast.Ident)
			return ok && id.Name == "delete"
		case *ast.IfStmt:
			for _, s := range st.Body.List {
				if !free(s) {
					return false
				}
			}
			if st.Else != nil {
				return free(st.Else)
			}
			return true
		case *ast.BlockStmt:
			for _, s := range st.List {
				if !free(s) {
					return false
				}
			}
			return true
		case *ast.DeclStmt, *ast.EmptyStmt:
			return true
		default:
			return false
		}
	}
	for _, s := range body.List {
		if !free(s) {
			return false
		}
	}
	return true
}

// sortsAfter reports whether the function calls a sorter (any function
// whose name contains "sort", covering sort.Slice, sort.Strings, and
// local helpers) lexically after the range statement — the
// collect-then-sort idiom the deterministic packages use everywhere.
func sortsAfter(fd *ast.FuncDecl, rng *ast.RangeStmt) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rng.End() {
			return true
		}
		var name string
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
			if id, ok := fun.X.(*ast.Ident); ok {
				name = id.Name + "." + name
			}
		}
		if strings.Contains(strings.ToLower(name), "sort") {
			found = true
			return false
		}
		return true
	})
	return found
}
