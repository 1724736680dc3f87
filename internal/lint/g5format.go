package lint

import (
	"go/ast"
	"path/filepath"
)

// AnalyzerG5Format keeps reduced-precision arithmetic in one place:
// internal/g5/format.go owns the mantissa-rounding and fixed-point
// quantisation that model the GRAPE-5 chip's number formats, and the
// conformance suite pins their bit patterns. Ad-hoc float bit
// manipulation anywhere else in the physics packages would fork that
// model silently, so the analyzer flags math.Float64bits /
// math.Float64frombits outside format.go (fault.go's seeded bit-flip
// injector is the one other sanctioned site).
var AnalyzerG5Format = &Analyzer{
	Name: "g5format",
	Doc:  "restrict float bit manipulation in physics packages to internal/g5/format.go",
	Run:  runG5Format,
}

// formatFiles are the files allowed to take floats apart bit by bit.
var formatFiles = map[string]bool{"format.go": true, "fault.go": true}

func runG5Format(pass *Pass) error {
	if !physicsPackages[pass.Pkg.Path()] {
		return nil
	}
	inG5 := pass.Pkg.Path() == g5Path
	for _, file := range pass.Files {
		base := filepath.Base(pass.Fset.Position(file.Pos()).Filename)
		if inG5 && formatFiles[base] {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			f := calleeFunc(pass.Info, call)
			if f != nil && funcPkgPath(f) == "math" &&
				(f.Name() == "Float64bits" || f.Name() == "Float64frombits") {
				pass.Reportf(call.Pos(), "math.%s outside internal/g5/format.go: reduced-precision bit manipulation must go through the format helpers (RoundMantissa, FixedGrid) so the conformance suite pins one model", f.Name())
			}
			return true
		})
	}
	return nil
}
