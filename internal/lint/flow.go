package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Flow is the per-package dataflow fact store the concurrency and
// determinism analyzers share: a lightweight intra-package call graph
// with memoized derived facts (which functions block, which functions
// are goroutine bodies, which parameters flow into encoding/json, which
// functions police float finiteness).
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

	spawned map[*FlowFunc]*ast.GoStmt

	guard     map[*FlowFunc]int // -1 unknown, 0 no, 1 yes
	jsonOnce  bool
	marshalT  map[*types.Named]bool
	unmarshal map[*types.Named]bool
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
		guard:    map[*FlowFunc]int{},
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

// GoSpawned maps each function body launched by a go statement in this
// package (a literal `go func(){…}()` or a named in-package callee
// `go s.run(…)`) to the spawning statement.
func (f *Flow) GoSpawned() map[*FlowFunc]*ast.GoStmt {
	if f.spawned != nil {
		return f.spawned
	}
	f.spawned = map[*FlowFunc]*ast.GoStmt{}
	for _, file := range f.pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			var target *FlowFunc
			switch fun := ast.Unparen(g.Call.Fun).(type) {
			case *ast.FuncLit:
				target = f.byNode[fun]
			default:
				target = f.Local(calleeFunc(f.pkg.Info, g.Call))
			}
			if target != nil && f.spawned[target] == nil {
				f.spawned[target] = g
			}
			return true
		})
	}
	return f.spawned
}

// FloatGuard reports whether fn's own body calls math.IsNaN or
// math.IsInf — the function participates in finiteness policing.
func (f *Flow) FloatGuard(fn *FlowFunc) bool {
	if v, ok := f.guard[fn]; ok {
		return v == 1
	}
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		if g := calleeFunc(f.pkg.Info, call); g != nil && funcPkgPath(g) == "math" &&
			(g.Name() == "IsNaN" || g.Name() == "IsInf") {
			found = true
		}
		return true
	})
	if found {
		f.guard[fn] = 1
	} else {
		f.guard[fn] = 0
	}
	return found
}

// GuardedType reports whether the named type has any in-package method
// that polices float finiteness (FloatGuard). A type that filters
// NaN/Inf at its write boundary yields finite reads, so its accessors
// are admissible float sources for wireschema.
func (f *Flow) GuardedType(named *types.Named) bool {
	for _, ff := range f.Funcs {
		if ff.Obj == nil {
			continue
		}
		sig, _ := ff.Obj.Type().(*types.Signature)
		if sig == nil || sig.Recv() == nil {
			continue
		}
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok && n.Obj() == named.Obj() && f.FloatGuard(ff) {
			return true
		}
	}
	return false
}

// JSONTypes returns the named struct types of this package that flow
// into encoding/json marshaling and unmarshaling, respectively. The
// computation is a small fixpoint so values reaching json through
// in-package helpers (`writeJSON(w, code, v)`) are attributed to the
// concrete types at the helper's call sites.
func (f *Flow) JSONTypes() (marshal, unmarshal map[*types.Named]bool) {
	if f.jsonOnce {
		return f.marshalT, f.unmarshal
	}
	f.jsonOnce = true
	f.marshalT = map[*types.Named]bool{}
	f.unmarshal = map[*types.Named]bool{}

	// Parameter objects of declared functions, for attributing helper
	// flows back to call sites.
	type paramSlot struct {
		owner *types.Func
		index int
	}
	params := map[types.Object]paramSlot{}
	for _, ff := range f.Funcs {
		if ff.Obj == nil {
			continue
		}
		sig := ff.Obj.Type().(*types.Signature)
		for i := 0; i < sig.Params().Len(); i++ {
			params[sig.Params().At(i)] = paramSlot{owner: ff.Obj, index: i}
		}
	}
	encParams := map[*types.Func]map[int]bool{}
	decParams := map[*types.Func]map[int]bool{}

	// sinkArgs returns the (kind, index) sinks of one call: which
	// arguments flow into a marshal (enc) or unmarshal (dec) operation.
	sinkArgs := func(call *ast.CallExpr) (enc, dec []int) {
		fn := calleeFunc(f.pkg.Info, call)
		if fn == nil {
			return nil, nil
		}
		if pkg, typ, ok := recvNamed(fn); ok && pkg == "encoding/json" {
			switch {
			case typ == "Encoder" && fn.Name() == "Encode":
				return []int{0}, nil
			case typ == "Decoder" && fn.Name() == "Decode":
				return nil, []int{0}
			}
			return nil, nil
		}
		switch funcPkgPath(fn) {
		case "encoding/json":
			switch fn.Name() {
			case "Marshal", "MarshalIndent":
				return []int{0}, nil
			case "Unmarshal":
				return nil, []int{1}
			}
			return nil, nil
		}
		for _, i := range sortedIndices(encParams[fn]) {
			enc = append(enc, i)
		}
		for _, i := range sortedIndices(decParams[fn]) {
			dec = append(dec, i)
		}
		return enc, dec
	}

	record := func(arg ast.Expr, set map[*types.Named]bool, pset map[*types.Func]map[int]bool) bool {
		e := ast.Unparen(arg)
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = ast.Unparen(u.X)
		}
		if id, ok := e.(*ast.Ident); ok {
			if slot, ok := params[f.pkg.Info.ObjectOf(id)]; ok {
				if pset[slot.owner] == nil {
					pset[slot.owner] = map[int]bool{}
				}
				if !pset[slot.owner][slot.index] {
					pset[slot.owner][slot.index] = true
					return true
				}
				return false
			}
		}
		named := namedOf(f.pkg.Info.TypeOf(e))
		if named != nil && named.Obj().Pkg() == f.pkg.Types && !set[named] {
			set[named] = true
			return true
		}
		return false
	}

	for rounds := 0; rounds < 10; rounds++ {
		changed := false
		for _, file := range f.pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				enc, dec := sinkArgs(call)
				for _, i := range enc {
					if i < len(call.Args) && record(call.Args[i], f.marshalT, encParams) {
						changed = true
					}
				}
				for _, i := range dec {
					if i < len(call.Args) && record(call.Args[i], f.unmarshal, decParams) {
						changed = true
					}
				}
				return true
			})
		}
		if !changed {
			break
		}
	}
	return f.marshalT, f.unmarshal
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

// sortedIndices returns the keys of a small index set in order.
func sortedIndices(m map[int]bool) []int {
	var out []int
	for i := 0; i < 32; i++ {
		if m[i] {
			out = append(out, i)
		}
	}
	return out
}
