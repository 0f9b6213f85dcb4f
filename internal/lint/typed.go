package lint

// Type-aware checks, layered on best-effort go/types information:
//
//   - nilfunc-call: a call through a function-valued struct field
//     (`m.Trace(...)` where Trace is `func(...)`) with no nil check of
//     the same selector in the enclosing function, when that same
//     field IS nil-checked somewhere else in the package. A field
//     someone guards is a field that can be nil; a new call site far
//     from the original guard panics only on the configs that leave
//     the hook unset — the worst kind of latent crash. Fields no code
//     ever nil-checks are presumed always-set by construction and
//     stay silent. Guard the call (`if m.Trace != nil`) or bind it
//     first (`if f := m.Trace; f != nil { f(...) }`).
//
//   - unsigned-sub-compare: an ordered comparison with an
//     unparenthesized unsigned subtraction operand, e.g.
//     `next-now < k` on uint64 cycle counts. When next < now the
//     subtraction wraps to a huge value and the comparison silently
//     answers wrong. Rewrite additively (`next < now+k`), which cannot
//     wrap, or parenthesize the subtraction to mark the a >= b
//     invariant deliberate.
//
// Type-checking is best-effort: imports resolve to empty stub
// packages and errors are swallowed, so any expression whose type
// depends on another package simply goes unchecked. The checks only
// fire when the checker is certain — a field selection it resolved, an
// operand it typed as unsigned — which keeps them false-positive-free
// even on packages that do not fully type-check in isolation.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// typedChecks type-checks one package's worth of parsed files and runs
// the nilfunc-call and unsigned-sub-compare checks over them.
func typedChecks(fset *token.FileSet, files []*ast.File) []Diagnostic {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: stubImporter{},
		Error:    func(error) {}, // best-effort: keep checking past unresolved imports
	}
	pkgName := "p"
	if len(files) > 0 {
		pkgName = files[0].Name.Name
	}
	// The returned error is deliberately dropped: the Error hook has
	// already seen every problem, and partial info is the point.
	conf.Check(pkgName, fset, files, info) //nolint:errcheck

	nilable := map[types.Object]bool{}
	for _, f := range files {
		collectNilableFields(f, info, nilable)
	}
	var diags []Diagnostic
	for _, f := range files {
		diags = append(diags, nilFuncCalls(fset, f, info, nilable)...)
		diags = append(diags, unsignedSubCompares(fset, f, info)...)
	}
	return diags
}

// stubImporter satisfies every import with an empty, complete package.
// Selections into one fail softly (invalid types), which the checks
// read as "unknown — skip".
type stubImporter struct{}

func (stubImporter) Import(path string) (*types.Package, error) {
	name := path
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		name = path[i+1:]
	}
	pkg := types.NewPackage(path, name)
	pkg.MarkComplete()
	return pkg, nil
}

// collectNilableFields records the types.Object of every func-valued
// struct field the file nil-checks — either directly
// (`x.hook != nil`) or through the bind idiom
// (`if f := x.hook; f != nil`). These are the fields the package
// itself treats as optional.
func collectNilableFields(f *ast.File, info *types.Info, nilable map[types.Object]bool) {
	mark := func(e ast.Expr) {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return
		}
		if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			if _, isFunc := s.Type().Underlying().(*types.Signature); isFunc {
				nilable[s.Obj()] = true
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				if isNilIdent(n.Y) {
					mark(n.X)
				} else if isNilIdent(n.X) {
					mark(n.Y)
				}
			}
		case *ast.IfStmt:
			// if f := x.hook; f != nil { ... }
			if as, ok := n.Init.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
				if be, ok := n.Cond.(*ast.BinaryExpr); ok &&
					(be.Op == token.EQL || be.Op == token.NEQ) &&
					(isNilIdent(be.X) || isNilIdent(be.Y)) {
					mark(as.Rhs[0])
				}
			}
		}
		return true
	})
}

// nilFuncCalls flags calls through nilable function-valued fields that
// have no nil check of the same selector in the enclosing function.
// The guard test is lexical and function-scoped: any `sel == nil` or
// `sel != nil` comparison anywhere in the function clears every call
// of that selector — deliberately forgiving, since the goal is to
// catch the call site someone added far from the existing guards, not
// to prove dominance.
func nilFuncCalls(fset *token.FileSet, f *ast.File, info *types.Info, nilable map[types.Object]bool) []Diagnostic {
	var diags []Diagnostic
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		guarded := nilComparedExprs(fd.Body)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s := info.Selections[sel]
			if s == nil || s.Kind() != types.FieldVal {
				return true // method or unresolved — not a func field
			}
			if _, isFunc := s.Type().Underlying().(*types.Signature); !isFunc {
				return true
			}
			if !nilable[s.Obj()] || guarded[types.ExprString(sel)] {
				return true
			}
			diags = append(diags, Diagnostic{
				Pos:   fset.Position(call.Pos()),
				Check: "nilfunc-call",
				Message: "func field " + types.ExprString(sel) +
					" is nil-checked elsewhere in this package but called here unguarded; guard it or bind it with if f := " +
					types.ExprString(sel) + "; f != nil",
			})
			return true
		})
	}
	return diags
}

// nilComparedExprs collects the printed form of every expression the
// body compares against nil with == or !=.
func nilComparedExprs(body *ast.BlockStmt) map[string]bool {
	checked := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		if isNilIdent(be.Y) {
			checked[types.ExprString(be.X)] = true
		} else if isNilIdent(be.X) {
			checked[types.ExprString(be.Y)] = true
		}
		return true
	})
	return checked
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// unsignedSubCompares flags ordered comparisons whose operand is an
// unparenthesized subtraction of unsigned integer type. Equality
// comparisons are exempt (a-b == 0 holds exactly when a == b, wrap or
// not), as are constant-folded subtractions (the compiler would reject
// a negative one).
func unsignedSubCompares(fset *token.FileSet, f *ast.File, info *types.Info) []Diagnostic {
	var diags []Diagnostic
	ast.Inspect(f, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || !isOrdered(be.Op) {
			return true
		}
		for _, side := range [2]ast.Expr{be.X, be.Y} {
			sub, ok := side.(*ast.BinaryExpr)
			if !ok || sub.Op != token.SUB {
				continue
			}
			tv, ok := info.Types[sub]
			if !ok || tv.Value != nil {
				continue // untyped, or a constant that already proved non-negative
			}
			basic, ok := tv.Type.Underlying().(*types.Basic)
			if !ok || (basic.Info()&types.IsUnsigned) == 0 {
				continue
			}
			diags = append(diags, Diagnostic{
				Pos:   fset.Position(be.Pos()),
				Check: "unsigned-sub-compare",
				Message: "unsigned subtraction wraps below zero before the " + be.Op.String() +
					" comparison; rewrite additively (a < b+c) or parenthesize to mark the invariant",
			})
		}
		return true
	})
	return diags
}

func isOrdered(op token.Token) bool {
	switch op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ:
		return true
	}
	return false
}
