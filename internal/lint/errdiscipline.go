package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerErrDiscipline polices error handling on the hardware and
// simulation surfaces: a discarded error from the g5 package or the
// public Simulation API hides exactly the failures the fault-tolerance
// layer exists to surface. A job whose periodic Checkpoint error is
// dropped runs to "done" with no durable state behind it. Flagged: a
// statement that calls an error-returning function or method of repro
// or repro/internal/g5 and drops the result (plain, defer and go
// statements).
//
// Explicit `_ = call()` assignments are the sanctioned opt-out for a
// provably-impossible error and must carry a justification the
// reviewer can check (a comment or an //lint:ignore).
var AnalyzerErrDiscipline = &Analyzer{
	Name: "errdiscipline",
	Doc:  "flag discarded errors from g5/Simulation calls",
	Run:  runErrDiscipline,
}

// watchedPkgs are the packages whose error returns must be handled.
var watchedPkgs = map[string]bool{rootPath: true, g5Path: true}

func runErrDiscipline(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkDiscard(pass, call, "")
				}
			case *ast.DeferStmt:
				checkDiscard(pass, n.Call, "defer ")
			case *ast.GoStmt:
				checkDiscard(pass, n.Call, "go ")
			}
			return true
		})
	}
	return nil
}

// checkDiscard flags a statement-position call to a watched
// error-returning function.
func checkDiscard(pass *Pass, call *ast.CallExpr, how string) {
	f := calleeFunc(pass.Info, call)
	if f == nil {
		return
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || !returnsError(sig) {
		return
	}
	owner := funcPkgPath(f)
	target := f.Name()
	if pkg, typ, isMethod := recvNamed(f); isMethod {
		owner = pkg
		target = typ + "." + f.Name()
	}
	if !watchedPkgs[owner] {
		return
	}
	if how == "defer " {
		pass.Reportf(call.Pos(), "defer discards the error from %s: wrap it in a closure and handle (or log) the error", target)
		return
	}
	pass.Reportf(call.Pos(), "%serror from %s discarded: handle it, or assign to _ with a justification", how, target)
}
