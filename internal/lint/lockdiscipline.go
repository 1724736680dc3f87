package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// AnalyzerLockDiscipline polices the two mutex contracts the job
// server's latency and liveness rest on (DESIGN.md §10):
//
//   - no sync.Mutex/RWMutex may be held across a blocking operation —
//     a channel send/receive outside a select-with-default, a select
//     without default, time.Sleep, a call into net/net-http, a
//     checkpoint write, or an in-package call that transitively does
//     any of those. A blocked critical section stalls every endpoint
//     that contends on the lock (the scheduler's Server.mu serializes
//     all of /jobs, /metrics and /healthz).
//   - lock acquisition order must be globally consistent per package:
//     if A is ever acquired while B is held, B must never be acquired
//     while A is held (the documented serve order is Server.mu before
//     Job.mu).
//
// sync.Cond.Wait is exempt: it releases the associated mutex while
// parked (the g5 dispatcher's next() idiom). internal/fsx metadata
// writes are exempt by design — persisting job metadata under the
// scheduling lock is the serve persistence-order contract.
//
// The held-span model is intentionally simple (linear scan, explicit
// Unlock ends the span, `defer Unlock` extends it to the end of the
// block that acquired the lock), which can miss locks re-acquired on
// rare branches; it does not produce false positives on the idioms the
// repository uses.
var AnalyzerLockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "forbid mutexes held across blocking operations and inconsistent lock acquisition order",
	Run:  runLockDiscipline,
}

// lockSpan is one approximated critical section of one lock.
type lockSpan struct {
	key   string // stable lock identity (field object or local var)
	disp  string // display name, e.g. "s.mu (Server.mu)"
	typed bool   // identity is type-level (eligible for order edges)
	start token.Pos
	end   token.Pos
}

// lockOrderEdge records "to acquired while from was held" once per
// package, at the first acquisition site.
type lockOrderEdge struct {
	pos        token.Pos
	dispFrom   string
	dispTo     string
	posForDisp token.Position
}

func runLockDiscipline(pass *Pass) error {
	// edges[from][to] — first acquisition of `to` while `from` held.
	edges := map[string]map[string]*lockOrderEdge{}

	for _, fn := range pass.Flow.Funcs {
		spans := lockSpans(pass, fn)
		if len(spans) == 0 {
			continue
		}
		parents := pass.Parents(fn.File)
		// Blocking atoms inside a held span.
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok && lit != fn.Node {
				return false
			}
			why, ok := pass.Flow.BlockingAtom(n, parents)
			if !ok {
				return true
			}
			for _, s := range spans {
				if s.start < n.Pos() && n.Pos() < s.end {
					pass.Reportf(n.Pos(), "%s held across %s: a blocked critical section stalls every contender; release the lock first or move the blocking operation out", s.disp, why)
				}
			}
			return true
		})
		// Order edges: span B starting inside span A.
		for _, a := range spans {
			if !a.typed {
				continue
			}
			for _, b := range spans {
				if !b.typed || a.key == b.key || b.start <= a.start || b.start >= a.end {
					continue
				}
				if edges[a.key] == nil {
					edges[a.key] = map[string]*lockOrderEdge{}
				}
				if edges[a.key][b.key] == nil {
					edges[a.key][b.key] = &lockOrderEdge{
						pos: b.start, dispFrom: a.disp, dispTo: b.disp,
					}
				}
			}
		}
	}

	// An edge participating in a cycle is an order inversion.
	type flatEdge struct {
		from, to string
		e        *lockOrderEdge
	}
	var flat []flatEdge
	for from, m := range edges {
		for to, e := range m {
			flat = append(flat, flatEdge{from, to, e})
		}
	}
	sort.Slice(flat, func(i, j int) bool { return flat[i].e.pos < flat[j].e.pos })
	for _, fe := range flat {
		if reachesLock(edges, fe.to, fe.from, map[string]bool{}) {
			pass.Reportf(fe.e.pos, "inconsistent lock order: %s acquired while %s is held here, but the package also acquires them in the opposite order; pick one global order (serve's contract: Server.mu before Job.mu)", fe.e.dispTo, fe.e.dispFrom)
		}
	}
	return nil
}

// reachesLock reports whether the order graph has a path from→to.
func reachesLock(edges map[string]map[string]*lockOrderEdge, from, to string, seen map[string]bool) bool {
	if from == to {
		return true
	}
	if seen[from] {
		return false
	}
	seen[from] = true
	for next := range edges[from] {
		if reachesLock(edges, next, to, seen) {
			return true
		}
	}
	return false
}

// lockSpans approximates the critical sections of fn: each
// Lock/RLock paired with the first later Unlock/RUnlock of the same
// lock, or extended to the end of the acquiring block when the unlock
// is deferred (directly or through a deferred closure), or to the end
// of the block when no unlock exists.
func lockSpans(pass *Pass, fn *FlowFunc) []lockSpan {
	type lockEv struct {
		key, disp string
		typed     bool
		pos       token.Pos
		scopeEnd  token.Pos
	}
	type unlockEv struct {
		key      string
		pos      token.Pos
		deferred bool
		matched  bool
	}
	var locks []lockEv
	var unlocks []*unlockEv
	parents := pass.Parents(fn.File)

	addCall := func(call *ast.CallExpr, deferredLit bool) {
		f := calleeFunc(pass.Info, call)
		if f == nil {
			return
		}
		pkg, typ, ok := recvNamed(f)
		if !ok || pkg != "sync" || (typ != "Mutex" && typ != "RWMutex") {
			return
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		key, disp, typed := lockIdentity(pass, sel.X)
		switch f.Name() {
		case "Lock", "RLock":
			locks = append(locks, lockEv{key: key, disp: disp, typed: typed, pos: call.Pos(), scopeEnd: enclosingBlockEnd(parents, call, fn)})
		case "Unlock", "RUnlock":
			unlocks = append(unlocks, &unlockEv{key: key, pos: call.Pos(), deferred: deferredLit || isDeferred(parents, call)})
		}
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n == fn.Node {
				return true
			}
			// A deferred closure's unlocks release the lock at function
			// exit; other nested literals run on their own schedule.
			if d, ok := parents[parents[n]].(*ast.DeferStmt); ok && ast.Unparen(d.Call.Fun) == ast.Node(n) {
				ast.Inspect(n.Body, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok {
						addCall(call, true)
					}
					return true
				})
			}
			return false
		case *ast.CallExpr:
			addCall(n, false)
		}
		return true
	})

	sort.Slice(locks, func(i, j int) bool { return locks[i].pos < locks[j].pos })
	sort.Slice(unlocks, func(i, j int) bool { return unlocks[i].pos < unlocks[j].pos })
	var spans []lockSpan
	for _, l := range locks {
		end := l.scopeEnd
		for _, u := range unlocks {
			if u.matched || u.key != l.key || u.pos < l.pos {
				continue
			}
			u.matched = true
			if !u.deferred {
				end = u.pos
			}
			break
		}
		spans = append(spans, lockSpan{key: l.key, disp: l.disp, typed: l.typed, start: l.pos, end: end})
	}
	return spans
}

// enclosingBlockEnd returns the end of the innermost block statement
// containing n within fn (falling back to the body end), so a lock
// acquired inside a branch is not considered held past the branch.
func enclosingBlockEnd(parents map[ast.Node]ast.Node, n ast.Node, fn *FlowFunc) token.Pos {
	for p := parents[n]; p != nil; p = parents[p] {
		switch p := p.(type) {
		case *ast.BlockStmt:
			return p.End()
		case *ast.FuncDecl, *ast.FuncLit:
			return fn.Body.End()
		}
	}
	return fn.Body.End()
}

// lockIdentity names the lock guarding expression recv (the x in
// x.Lock()). Struct fields get a stable type-level identity
// ("pkg.Type.field") usable for cross-function order tracking; locals
// and unrecognized shapes get a function-local identity.
func lockIdentity(pass *Pass, recv ast.Expr) (key, disp string, typed bool) {
	recv = ast.Unparen(recv)
	switch e := recv.(type) {
	case *ast.SelectorExpr:
		if sel := pass.Info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
			obj := sel.Obj()
			owner := "?"
			if named := namedOf(sel.Recv()); named != nil {
				owner = named.Obj().Name()
			}
			short := owner + "." + obj.Name()
			return fmt.Sprintf("%s.%s", pkgPathOf(obj), short), fmt.Sprintf("%s (%s)", types.ExprString(e), short), true
		}
		if obj := pass.Info.ObjectOf(e.Sel); obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			// Package-qualified or package-level variable.
			return obj.Pkg().Path() + "." + obj.Name(), types.ExprString(e), true
		}
	case *ast.Ident:
		if obj := pass.Info.ObjectOf(e); obj != nil {
			if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				return obj.Pkg().Path() + "." + obj.Name(), e.Name, true
			}
			return fmt.Sprintf("local:%d", obj.Pos()), e.Name, false
		}
	}
	return "expr:" + types.ExprString(recv), types.ExprString(recv), false
}

// pkgPathOf returns the declaring package path of obj ("" if none).
func pkgPathOf(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}
