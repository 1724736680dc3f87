package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerFPReduce closes the gap the nondeterminism analyzer covers
// only syntactically: floating-point addition is not associative, so a
// float accumulation whose order depends on goroutine scheduling
// silently breaks the bitwise-determinism contract without failing any
// single-run test. Flagged in the physics packages:
//
//   - a float += / -= / x = x + y on a variable captured from outside a
//     go-launched function literal (the accumulation order is the
//     scheduler's choice; indexed per-worker slots are the sanctioned
//     idiom and are not flagged);
//   - a float accumulation into a package-level variable (shared across
//     every caller, so concurrent callers interleave their sums).
//
// Reductions must instead accumulate per-worker partials and merge them
// in a fixed order after the workers join. serve and obs are out of
// scope: their floats are seconds that obs.Observer already sums in
// arrival order, so no bit pattern of theirs is promised.
var AnalyzerFPReduce = &Analyzer{
	Name: "fpreduce",
	Doc:  "flag order-dependent floating-point accumulation (go-captured or package-level) in physics packages",
	Run:  runFPReduce,
}

func runFPReduce(pass *Pass) error {
	if !physicsPackages[pass.Pkg.Path()] {
		return nil
	}
	for _, file := range pass.Files {
		parents := pass.Parents(file)
		ast.Inspect(file, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			lhs, isAccum := floatAccumulation(pass, assign)
			if !isAccum {
				return true
			}
			// An indexed target (partial[w] += x) is the sanctioned
			// per-slot idiom: each slot has one writer, so ordering cannot
			// leak into the sum.
			if _, isIndexed := ast.Unparen(lhs).(*ast.IndexExpr); isIndexed {
				return true
			}
			base := baseIdent(lhs)
			if base == nil {
				return true
			}
			obj := pass.Info.ObjectOf(base)
			if obj == nil {
				return true
			}
			if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				pass.Reportf(assign.Pos(), "float accumulation into package-level %s: shared mutable order-dependent state; accumulate into a local and return it", base.Name)
			} else if lit := enclosingGoLit(parents, assign); lit != nil && !within(obj.Pos(), lit) {
				pass.Reportf(assign.Pos(), "float accumulation into %s, captured by a go-launched literal: summation order leaks goroutine scheduling into the result; accumulate per-worker partials and merge deterministically", base.Name)
			}
			return true
		})
	}
	return nil
}

// floatAccumulation recognizes `x += e`, `x -= e` and `x = x ± e` /
// `x = e + x` with float-typed x, returning the target expression.
func floatAccumulation(pass *Pass, assign *ast.AssignStmt) (ast.Expr, bool) {
	if len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return nil, false
	}
	lhs := assign.Lhs[0]
	if !isFloatExpr(pass, lhs) {
		return nil, false
	}
	switch assign.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN:
		return lhs, true
	case token.ASSIGN:
		bin, ok := ast.Unparen(assign.Rhs[0]).(*ast.BinaryExpr)
		if !ok || (bin.Op != token.ADD && bin.Op != token.SUB) {
			return nil, false
		}
		lstr := types.ExprString(lhs)
		if types.ExprString(bin.X) == lstr || (bin.Op == token.ADD && types.ExprString(bin.Y) == lstr) {
			return lhs, true
		}
	}
	return nil, false
}

// isFloatExpr reports whether e has float32/float64 underlying type.
func isFloatExpr(pass *Pass, e ast.Expr) bool {
	t := pass.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// baseIdent returns the leftmost identifier of an lvalue chain
// (x, x.f, x.f.g, x[i]), or nil.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// enclosingGoLit returns the innermost enclosing function literal that
// is launched directly by a go statement, or nil.
func enclosingGoLit(parents map[ast.Node]ast.Node, n ast.Node) *ast.FuncLit {
	for p := parents[n]; p != nil; p = parents[p] {
		switch p := p.(type) {
		case *ast.FuncDecl:
			return nil
		case *ast.FuncLit:
			if call, ok := parents[p].(*ast.CallExpr); ok {
				if _, ok := parents[call].(*ast.GoStmt); ok && ast.Unparen(call.Fun) == ast.Node(p) {
					return p
				}
			}
			// A nested (non-go) literal: keep climbing — a capture
			// inside it still executes on the goroutine if an enclosing
			// literal was go-launched.
		}
	}
	return nil
}

// within reports whether pos lies inside the literal's extent.
func within(pos token.Pos, lit *ast.FuncLit) bool {
	return lit.Pos() <= pos && pos <= lit.End()
}
