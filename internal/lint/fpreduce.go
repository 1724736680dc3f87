package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AnalyzerFPReduce closes the gap the nondeterminism analyzer covers
// only syntactically: floating-point addition is not associative, so a
// float accumulation whose order depends on goroutine scheduling or map
// iteration silently breaks the bitwise-determinism contract (PR 3/5/8)
// without failing any single-run test. Flagged in the physics packages
// plus serve and obs:
//
//   - a float += / -= / x = x + y on a variable captured from outside a
//     go-launched function literal (the accumulation order is the
//     scheduler's choice; indexed per-worker slots are the sanctioned
//     idiom and are not flagged);
//   - a float accumulation inside a `range` over a map (iteration order
//     is randomized);
//   - a float accumulation into a package-level variable (shared across
//     every caller).
//
// Reductions must instead flow through the sanctioned deterministic
// merge helpers — the g5 telemetry Add methods, the hostk j-list and
// obs.Observer/PhaseSeconds accumulation — which merge per-worker
// partials in a fixed order (or CAS with order-insensitive semantics).
var AnalyzerFPReduce = &Analyzer{
	Name: "fpreduce",
	Doc:  "flag order-dependent floating-point accumulation outside the sanctioned deterministic merge helpers",
	Run:  runFPReduce,
}

// fpreduceSanctioned lists the deterministic merge helpers per package:
// "Type.Method", plain "Func", or "Type.*" for every method of a type.
var fpreduceSanctioned = map[string]map[string]bool{
	g5Path: {
		"Counters.Add": true, "Recovery.Add": true, "FaultStats.Add": true,
		"Cluster.mergeObs": true,
	},
	obsPath: {
		"Observer.AddSeconds": true, "PhaseSeconds.Add": true,
	},
	hostkPath: {
		"JList.*": true,
	},
}

func fpreduceScoped(path string) bool {
	return physicsPackages[path] || path == servePath || path == obsPath
}

func runFPReduce(pass *Pass) error {
	if !fpreduceScoped(pass.Pkg.Path()) {
		return nil
	}
	sanctioned := fpreduceSanctioned[pass.Pkg.Path()]
	for _, file := range pass.Files {
		parents := pass.Parents(file)
		ast.Inspect(file, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			lhs, isAccum := floatAccumulation(pass, assign)
			if !isAccum || inSanctionedFunc(pass, parents, assign, sanctioned) {
				return true
			}
			// An indexed target (partial[w] += x, out[key] += v) is the
			// sanctioned per-slot idiom: each slot has one writer or one
			// key, so ordering cannot leak into the sum.
			_, isIndexed := ast.Unparen(lhs).(*ast.IndexExpr)
			if base := baseIdent(lhs); base != nil {
				obj := pass.Info.ObjectOf(base)
				if obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() && !isIndexed {
					pass.Reportf(assign.Pos(), "float accumulation into package-level %s: shared mutable order-dependent state; merge through a sanctioned deterministic helper", base.Name)
					return true
				}
				if lit := enclosingGoLit(pass, parents, assign); lit != nil && obj != nil && !within(obj.Pos(), lit) && !isIndexed {
					pass.Reportf(assign.Pos(), "float accumulation into %s, captured by a go-launched literal: summation order leaks goroutine scheduling into the result; accumulate per-worker partials and merge deterministically", base.Name)
					return true
				}
			}
			if !isIndexed && rangeOverMap(pass, parents, assign) {
				pass.Reportf(assign.Pos(), "float accumulation inside a range over a map: iteration order is randomized, so the sum is run-dependent; iterate a sorted key slice or merge through a sanctioned helper")
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
func enclosingGoLit(pass *Pass, parents map[ast.Node]ast.Node, n ast.Node) *ast.FuncLit {
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

// rangeOverMap reports whether n is inside the body of a range over a
// map within the same function.
func rangeOverMap(pass *Pass, parents map[ast.Node]ast.Node, n ast.Node) bool {
	for p := parents[n]; p != nil; p = parents[p] {
		switch p := p.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			if t := pass.Info.TypeOf(p.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					return true
				}
			}
		}
	}
	return false
}

// inSanctionedFunc reports whether n's enclosing named function is on
// the package's sanctioned-helper list.
func inSanctionedFunc(pass *Pass, parents map[ast.Node]ast.Node, n ast.Node, sanctioned map[string]bool) bool {
	if len(sanctioned) == 0 {
		return false
	}
	fn := enclosingFunc(parents, n)
	decl, ok := fn.(*ast.FuncDecl)
	if !ok {
		// Literals inherit their declaring function's sanction.
		for p := parents[fn]; p != nil; p = parents[p] {
			if d, ok := p.(*ast.FuncDecl); ok {
				decl = d
				break
			}
		}
		if decl == nil {
			return false
		}
	}
	name := decl.Name.Name
	if obj, ok := pass.Info.Defs[decl.Name].(*types.Func); ok {
		if _, typ, isMethod := recvNamed(obj); isMethod {
			if sanctioned[typ+".*"] || sanctioned[typ+"."+name] {
				return true
			}
			name = typ + "." + name
		}
	}
	return sanctioned[name] || sanctioned[strings.TrimPrefix(name, "*")]
}
