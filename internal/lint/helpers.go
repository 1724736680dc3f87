package lint

import (
	"go/ast"
	"go/types"
)

// calleeFunc resolves the function or method a call expression invokes,
// or nil when the callee is not a named function (e.g. a conversion, a
// function-typed variable or a builtin).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fn]
	case *ast.SelectorExpr:
		obj = info.Uses[fn.Sel]
	}
	f, _ := obj.(*types.Func)
	return f
}

// funcPkgPath returns the import path of the package declaring f
// ("" for builtins and universe-scope functions like error.Error).
func funcPkgPath(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// recvNamed returns the declaring package path and type name of a
// method's receiver (pointers dereferenced), or ok=false for plain
// functions and interface-free receivers.
func recvNamed(f *types.Func) (pkgPath, typeName string, ok bool) {
	sig, _ := f.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", "", false
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", obj.Name(), true
	}
	return obj.Pkg().Path(), obj.Name(), true
}

// returnsError reports whether the call's last result is of type error.
func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	last := res.At(res.Len() - 1).Type()
	return types.Identical(last, types.Universe.Lookup("error").Type())
}

// buildParents maps every node of the file to its syntactic parent.
func buildParents(file *ast.File) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// enclosingFunc returns the innermost FuncDecl or FuncLit containing n
// (nil at package scope).
func enclosingFunc(parents map[ast.Node]ast.Node, n ast.Node) ast.Node {
	for p := parents[n]; p != nil; p = parents[p] {
		switch p.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return p
		}
	}
	return nil
}

// isDeferred reports whether n executes under a defer statement in its
// enclosing function — directly (`defer t.Stop()`) or through a
// deferred closure (`defer func() { t.Stop() }()`).
func isDeferred(parents map[ast.Node]ast.Node, n ast.Node) bool {
	for p := parents[n]; p != nil; p = parents[p] {
		switch p.(type) {
		case *ast.DeferStmt:
			return true
		case *ast.FuncDecl:
			return false
		}
	}
	return false
}
