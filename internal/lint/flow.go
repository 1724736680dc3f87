package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Flow is the per-package fact store lockdiscipline and goroutinejoin
// share: a lightweight intra-package call graph with one memoized
// derived fact, which functions block.
//
// Facts are strictly per-package on purpose: the loader type-checks
// one package at a time from source and sees its dependencies only as
// export data. Cross-package calls are therefore classified by import
// path and signature only, never by callee source.
type Flow struct {
	pkg *Package

	// Funcs lists every function body in the package: declarations and
	// function literals alike.
	Funcs []*FlowFunc
	// ByObj maps a declared function/method object to its body.
	ByObj map[*types.Func]*FlowFunc

	byNode  map[ast.Node]*FlowFunc
	parents map[*ast.File]map[ast.Node]ast.Node

	blocking map[*FlowFunc]*blockFact
	visiting map[*FlowFunc]bool
}

// FlowFunc is one function body known to the Flow store.
type FlowFunc struct {
	// Node is the *ast.FuncDecl or *ast.FuncLit.
	Node ast.Node
	// Body is the function body (never nil for a stored FlowFunc).
	Body *ast.BlockStmt
	// Obj is the declared object; nil for function literals.
	Obj *types.Func
	// File is the file the body lives in.
	File *ast.File
	// Name is a display name ("Server.submit", "function literal").
	Name string
}

// blockFact caches whether a function blocks and why.
type blockFact struct {
	blocks bool
	reason string
}

// NewFlow builds the fact store for one type-checked package.
func NewFlow(pkg *Package) *Flow {
	f := &Flow{
		pkg:      pkg,
		ByObj:    map[*types.Func]*FlowFunc{},
		byNode:   map[ast.Node]*FlowFunc{},
		parents:  map[*ast.File]map[ast.Node]ast.Node{},
		blocking: map[*FlowFunc]*blockFact{},
		visiting: map[*FlowFunc]bool{},
	}
	for _, file := range pkg.Files {
		file := file
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body == nil {
					return true
				}
				ff := &FlowFunc{Node: n, Body: n.Body, File: file, Name: n.Name.Name}
				if obj, ok := pkg.Info.Defs[n.Name].(*types.Func); ok {
					ff.Obj = obj
					if p, typ, isMethod := recvNamed(obj); isMethod && p != "" {
						ff.Name = typ + "." + n.Name.Name
					}
				}
				f.Funcs = append(f.Funcs, ff)
				f.byNode[n] = ff
				if ff.Obj != nil {
					f.ByObj[ff.Obj] = ff
				}
			case *ast.FuncLit:
				ff := &FlowFunc{Node: n, Body: n.Body, File: file, Name: "function literal"}
				f.Funcs = append(f.Funcs, ff)
				f.byNode[n] = ff
			}
			return true
		})
	}
	return f
}

// Parents returns (building on first use) the node→parent map of file.
func (f *Flow) Parents(file *ast.File) map[ast.Node]ast.Node {
	p := f.parents[file]
	if p == nil {
		p = buildParents(file)
		f.parents[file] = p
	}
	return p
}

// FuncOf returns the FlowFunc for a FuncDecl/FuncLit node, or nil.
func (f *Flow) FuncOf(n ast.Node) *FlowFunc { return f.byNode[n] }

// Local resolves a called function object to its in-package body, or
// nil when the callee is external or unknown.
func (f *Flow) Local(callee *types.Func) *FlowFunc {
	if callee == nil {
		return nil
	}
	return f.ByObj[callee]
}

// blockingPkgs are the import paths whose calls count as blocking for
// lock-discipline purposes: network I/O and durable checkpoint writes.
// internal/fsx is deliberately absent — the job server persists job
// metadata under its scheduling lock by design (the persistence-order
// contract), and local metadata writes are bounded.
var blockingPkgs = map[string]string{
	"net":                 "network I/O",
	"repro/internal/ckpt": "checkpoint I/O",
}

// httpBlocking classifies net/http calls: only the genuinely
// I/O-bearing surface blocks — client round trips, server accept
// loops, response writes to a possibly-slow peer. Accessors like
// Request.PathValue or Header are pure and must not poison the
// transitive blocking facts.
func httpBlocking(fn *types.Func) bool {
	if _, typ, ok := recvNamed(fn); ok {
		switch typ {
		case "Client", "Transport", "Server":
			return true
		case "ResponseWriter":
			return fn.Name() == "Write"
		case "Flusher":
			return fn.Name() == "Flush"
		case "RoundTripper":
			return fn.Name() == "RoundTrip"
		case "Hijacker":
			return fn.Name() == "Hijack"
		}
		return false
	}
	switch fn.Name() {
	case "Get", "Head", "Post", "PostForm", "ListenAndServe", "ListenAndServeTLS", "Serve", "ServeTLS":
		return true
	}
	return false
}

// CallBlocking classifies one call expression: it returns a
// human-readable reason when the call can block (channel waits are
// handled separately by BlockingAtom), or "" when it cannot or the
// callee is unknown. In-package callees are classified transitively
// from their own bodies.
func (f *Flow) CallBlocking(call *ast.CallExpr) string {
	fn := calleeFunc(f.pkg.Info, call)
	if fn == nil {
		return ""
	}
	if pkg, typ, ok := recvNamed(fn); ok && pkg == "sync" {
		if typ == "WaitGroup" && fn.Name() == "Wait" {
			return "sync.WaitGroup.Wait"
		}
		// sync.Cond.Wait releases the associated lock while parked: the
		// dispatcher's next() idiom is sound and exempt.
		return ""
	}
	path := funcPkgPath(fn)
	if path == "time" && fn.Name() == "Sleep" {
		return "time.Sleep"
	}
	if path == "net/http" {
		if httpBlocking(fn) {
			return "HTTP I/O (" + callName(fn) + ")"
		}
		return ""
	}
	if why, ok := blockingPkgs[path]; ok {
		return why + " (" + callName(fn) + ")"
	}
	if local := f.Local(fn); local != nil {
		if why, blocks := f.Blocking(local); blocks {
			return "call to " + local.Name + ", which blocks on " + why
		}
	}
	return ""
}

// callName renders a called function for diagnostics.
func callName(fn *types.Func) string {
	if _, typ, ok := recvNamed(fn); ok {
		return typ + "." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// Blocking reports whether fn contains a blocking operation on some
// path, with a reason. The scan covers fn's own body (nested function
// literals run on their own schedule and are excluded) and follows
// in-package calls transitively; recursion cycles resolve to
// non-blocking.
func (f *Flow) Blocking(fn *FlowFunc) (string, bool) {
	if fact := f.blocking[fn]; fact != nil {
		return fact.reason, fact.blocks
	}
	if f.visiting[fn] {
		return "", false
	}
	f.visiting[fn] = true
	defer delete(f.visiting, fn)

	parents := f.Parents(fn.File)
	reason := ""
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		if lit, ok := n.(*ast.FuncLit); ok && lit != fn.Node {
			return false
		}
		if why, ok := f.BlockingAtom(n, parents); ok {
			reason = why
			return false
		}
		return true
	})
	f.blocking[fn] = &blockFact{blocks: reason != "", reason: reason}
	return reason, reason != ""
}

// BlockingAtom classifies a single node as a blocking operation:
// channel send/receive outside a select-with-default, a select without
// a default, a range over a channel, or a blocking call (CallBlocking).
func (f *Flow) BlockingAtom(n ast.Node, parents map[ast.Node]ast.Node) (string, bool) {
	switch n := n.(type) {
	case *ast.SendStmt:
		if inSelectComm(parents, n) {
			return "", false
		}
		return "channel send", true
	case *ast.UnaryExpr:
		if n.Op != token.ARROW {
			return "", false
		}
		if inSelectComm(parents, n) {
			return "", false
		}
		return "channel receive", true
	case *ast.SelectStmt:
		for _, c := range n.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				return "", false // has default: non-blocking poll
			}
		}
		return "select without default", true
	case *ast.RangeStmt:
		if t := f.pkg.Info.TypeOf(n.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				return "range over channel", true
			}
		}
	case *ast.CallExpr:
		if g, ok := parents[n].(*ast.GoStmt); ok && g.Call == n {
			return "", false // a spawn hands the call to another goroutine
		}
		if why := f.CallBlocking(n); why != "" {
			return why, true
		}
	}
	return "", false
}

// inSelectComm reports whether n is (part of) the communication clause
// of an enclosing select statement — those waits are governed by the
// select itself, which BlockingAtom classifies separately.
func inSelectComm(parents map[ast.Node]ast.Node, n ast.Node) bool {
	for p := parents[n]; p != nil; p = parents[p] {
		switch p := p.(type) {
		case *ast.CommClause:
			return p.Comm != nil && p.Comm.Pos() <= n.Pos() && n.End() <= p.Comm.End()
		case *ast.FuncDecl, *ast.FuncLit:
			return false
		}
	}
	return false
}

// namedOf strips pointers, slices and arrays and returns the named
// type underneath, or nil.
func namedOf(t types.Type) *types.Named {
	for t != nil {
		switch u := t.(type) {
		case *types.Named:
			return u
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		default:
			return nil
		}
	}
	return nil
}
