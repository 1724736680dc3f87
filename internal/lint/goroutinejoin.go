package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerGoroutineJoin makes the serve soak test's goroutine-leak
// budget a compile-time property: every `go` statement in the physics
// and service packages must have a provable join path — evidence inside
// the goroutine body (followed one level through in-package callees)
// that it terminates or is waited on:
//
//   - sync.WaitGroup.Done (the spawner Waits),
//   - a channel send or close (a receiver observes completion),
//   - a range over a channel (ends when the producer closes),
//   - a receive from a Done() channel (context cancellation).
//
// cmd/* packages are out of scope: a main owns its process lifetime
// and may intentionally park a watchdog goroutine forever.
var AnalyzerGoroutineJoin = &Analyzer{
	Name: "goroutinejoin",
	Doc:  "require every goroutine in physics/service packages to have a provable join path",
	Run:  runGoroutineJoin,
}

// joinScoped is goroutinejoin's scope: the physics set, the service
// tier, and the packages where a leaked goroutine is reported by this
// rule and by no test (fsx, the root package). In ckpt and obs the
// tests report one first.
func joinScoped(path string) bool {
	return physicsPackages[path] || path == servePath ||
		path == "repro/internal/fsx" || path == rootPath
}

func runGoroutineJoin(pass *Pass) error {
	if !joinScoped(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			var body *FlowFunc
			switch fun := ast.Unparen(g.Call.Fun).(type) {
			case *ast.FuncLit:
				body = pass.Flow.FuncOf(fun)
			default:
				body = pass.Flow.Local(calleeFunc(pass.Info, g.Call))
			}
			if body == nil {
				pass.Reportf(g.Pos(), "goroutine body is not analyzable (function value or external callee): the goroutine-leak budget needs a provable join; spawn a named in-package function or a literal")
				return true
			}
			if _, ok := joinEvidence(pass, body, map[*FlowFunc]bool{}); !ok {
				pass.Reportf(g.Pos(), "goroutine has no provable join path (no WaitGroup.Done, channel send/close, channel range, or <-Done() in the body): add one, or //lint:ignore with the lifetime argument")
			}
			return true
		})
	}
	return nil
}

// joinEvidence searches fn's body (nested literals included — a
// deferred closure's wg.Done counts) and its in-package callees for a
// join mechanism.
func joinEvidence(pass *Pass, fn *FlowFunc, visited map[*FlowFunc]bool) (string, bool) {
	if visited[fn] {
		return "", false
	}
	visited[fn] = true
	found := ""
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			found = "channel send"
		case *ast.RangeStmt:
			if t := pass.Info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = "channel range"
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
					if f := calleeFunc(pass.Info, call); f != nil && f.Name() == "Done" {
						found = "context cancellation"
					}
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if _, isBuiltin := pass.Info.ObjectOf(id).(*types.Builtin); isBuiltin && id.Name == "close" {
					found = "channel close"
					return false
				}
			}
			f := calleeFunc(pass.Info, n)
			if f == nil {
				return true
			}
			if pkg, typ, ok := recvNamed(f); ok && pkg == "sync" && typ == "WaitGroup" && f.Name() == "Done" {
				found = "WaitGroup.Done"
				return false
			}
			if local := pass.Flow.Local(f); local != nil {
				if why, ok := joinEvidence(pass, local, visited); ok {
					found = why
					return false
				}
			}
		}
		return true
	})
	return found, found != ""
}
