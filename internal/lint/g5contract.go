package lint

import "go/ast"

// AnalyzerG5Contract enforces register-level isolation of the emulated
// hardware (cf. the GRAPE-5 hardware paper, astro-ph/9909116): outside
// internal/g5, the raw data-path entry points — System.Compute,
// System.ChargeOnly, System.SetBoardExcluded — are off limits. Hosts
// drive the hardware through GuardedEngine or Cluster, which
// own serialisation, error classification and fault recovery. A call
// before SetScale is refused at run time by System with an error
// errdiscipline forbids dropping.
var AnalyzerG5Contract = &Analyzer{
	Name: "g5contract",
	Doc:  "enforce register-level isolation of internal/g5 (System.Compute, ChargeOnly, SetBoardExcluded)",
	Run:  runG5Contract,
}

func runG5Contract(pass *Pass) error {
	if pass.Pkg.Path() == g5Path {
		return nil
	}
	for _, file := range pass.Files {
		checkRegisterAccess(pass, file)
	}
	return nil
}

// registerMethods are the raw data-path methods of g5.System that only
// internal/g5 may touch.
var registerMethods = map[string]bool{
	"Compute": true, "ChargeOnly": true, "SetBoardExcluded": true,
}

func checkRegisterAccess(pass *Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := calleeFunc(pass.Info, call)
		if f == nil || !registerMethods[f.Name()] {
			return true
		}
		if pkg, typ, ok := recvNamed(f); ok && pkg == g5Path && typ == "System" {
			pass.Reportf(call.Pos(), "register-level access to g5.System.%s outside internal/g5: drive the hardware through GuardedEngine or Cluster", f.Name())
		}
		return true
	})
}
