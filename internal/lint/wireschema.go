package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"
)

// AnalyzerWireSchema audits the structs that cross a process boundary —
// the /jobs, /metrics and /healthz HTTP payloads and the run-directory
// event/metadata files. A "wire struct" is any named struct in a wire
// package (serve, obs, g5) that either carries a json tag or provably
// flows into encoding/json (directly or through in-package helpers like
// writeJSON, via Flow.JSONTypes).
//
// Three contracts:
//
//   - every exported non-embedded field needs an explicit json tag:
//     encoding/json would otherwise expose the Go identifier, so a
//     rename silently changes the public API;
//   - a wire field whose type lives in another repro package must also
//     be fully tagged there (checked from the export data);
//   - a float field on a marshal path must be provably finite:
//     json.Marshal fails at runtime on NaN/±Inf. "Provably finite"
//     means either witnessed by a finiteness guard (the field reaches a
//     function that calls math.IsNaN/IsInf) or
//     every in-package source of the field is structurally admissible
//     (literals and constants, integer conversions, sums/products of
//     admissible values, division by a nonzero literal,
//     time.Duration.Seconds, math.Abs-family calls, calls into guarded
//     helpers, other admissible fields — a fixpoint).
//
// Structs with custom MarshalJSON/UnmarshalJSON are exempt, as are
// decode-only structs for the float rule (inbound values are validated
// by the handler, not produced by us).
var AnalyzerWireSchema = &Analyzer{
	Name: "wireschema",
	Doc:  "require explicit json tags and provably finite floats on HTTP and run-directory wire structs",
	Run:  runWireSchema,
}

// wirePackages are the packages whose structs can reach a process
// boundary: the HTTP job server, the telemetry reports it serves and
// the hardware-model events. (Checkpoints are binary, not JSON: their
// layout is pinned by byte-golden files in internal/ckpt.)
var wirePackages = map[string]bool{
	servePath: true,
	obsPath:   true,
	g5Path:    true,
}

func runWireSchema(pass *Pass) error {
	if !wirePackages[pass.Pkg.Path()] {
		return nil
	}
	marshalSeed, unmarshalSeed := pass.Flow.JSONTypes()
	marshal := wireFieldClosure(pass, marshalSeed)
	unmarshalC := wireFieldClosure(pass, unmarshalSeed)

	// Every named struct declared in this package.
	var wire []*types.Named
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		if hasJSONTag(st) || marshal[named] || unmarshalC[named] {
			wire = append(wire, named)
		}
	}
	sort.Slice(wire, func(i, j int) bool { return wire[i].Obj().Pos() < wire[j].Obj().Pos() })

	w := newWireChecker(pass)
	for _, named := range wire {
		if hasCustomJSON(named) {
			continue
		}
		st := named.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() || f.Embedded() {
				continue
			}
			tag := reflect.StructTag(st.Tag(i)).Get("json")
			if tag == "" {
				pass.Reportf(f.Pos(), "exported field %s.%s has no json tag: wire structs must name every field explicitly, or a Go rename silently changes the public schema", named.Obj().Name(), f.Name())
			}
			checkCrossPackageTags(pass, named, f)
			if tag == "-" || !marshal[named] {
				continue
			}
			if isFloatVar(f) && !w.fieldAdmissible(f) {
				pos := f.Pos()
				for _, s := range w.sources[f] {
					if !w.sourceAdmissible(s) {
						pos = s.pos
						break
					}
				}
				pass.Reportf(pos, "float field %s.%s can reach encoding/json carrying NaN or Inf (json.Marshal fails at runtime on non-finite values): guard it with math.IsNaN/IsInf or derive it only from provably finite inputs", named.Obj().Name(), f.Name())
			}
		}
	}
	return nil
}

// wireFieldClosure expands a JSONTypes seed set across in-package
// struct-typed fields: if jobMeta is marshaled, its JobRequest field is
// marshaled too.
func wireFieldClosure(pass *Pass, seed map[*types.Named]bool) map[*types.Named]bool {
	out := map[*types.Named]bool{}
	var add func(n *types.Named)
	add = func(n *types.Named) {
		if n == nil || out[n] || n.Obj().Pkg() != pass.Pkg {
			return
		}
		st, ok := n.Underlying().(*types.Struct)
		if !ok {
			return
		}
		out[n] = true
		for i := 0; i < st.NumFields(); i++ {
			t := st.Field(i).Type()
			if m, ok := t.Underlying().(*types.Map); ok {
				add(namedOf(m.Elem()))
			}
			add(namedOf(t))
		}
	}
	for n := range seed {
		add(n)
	}
	return out
}

// checkCrossPackageTags verifies (from export data) that a wire field's
// repro-internal struct type is itself fully tagged.
func checkCrossPackageTags(pass *Pass, owner *types.Named, f *types.Var) {
	ft := namedOf(f.Type())
	if ft == nil || ft.Obj().Pkg() == nil || ft.Obj().Pkg() == pass.Pkg {
		return
	}
	path := ft.Obj().Pkg().Path()
	if path != rootPath && !strings.HasPrefix(path, rootPath+"/") {
		return
	}
	if hasCustomJSON(ft) {
		return
	}
	st, ok := ft.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		g := st.Field(i)
		if !g.Exported() || g.Embedded() {
			continue
		}
		if reflect.StructTag(st.Tag(i)).Get("json") == "" {
			pass.Reportf(f.Pos(), "wire field %s.%s has cross-package type %s.%s with untagged exported field %s: tag it at the declaration or wrap it before it reaches encoding/json", owner.Obj().Name(), f.Name(), ft.Obj().Pkg().Name(), ft.Obj().Name(), g.Name())
		}
	}
}

// hasJSONTag reports whether any field of st carries a json tag.
func hasJSONTag(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		if reflect.StructTag(st.Tag(i)).Get("json") != "" {
			return true
		}
	}
	return false
}

// hasCustomJSON reports whether the type declares its own
// MarshalJSON/UnmarshalJSON — its wire shape is then whatever the
// method produces, not the struct layout.
func hasCustomJSON(named *types.Named) bool {
	for i := 0; i < named.NumMethods(); i++ {
		switch named.Method(i).Name() {
		case "MarshalJSON", "UnmarshalJSON":
			return true
		}
	}
	return false
}

// isFloatVar reports whether v is a scalar float field.
func isFloatVar(v *types.Var) bool {
	b, ok := v.Type().Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// fieldSource is one place a struct field gets a value: an assignment
// RHS or a composite-literal entry. A nil expr means the value is not
// attributable (multi-value assignment) and counts as inadmissible.
type fieldSource struct {
	pos      token.Pos
	expr     ast.Expr
	quoDenom bool // source is `f /= expr`: admissible iff expr is a nonzero constant
}

// wireChecker holds the witness set and per-field source lists for the
// finiteness fixpoint.
type wireChecker struct {
	pass       *Pass
	witnessed  map[*types.Var]bool
	sources    map[*types.Var][]fieldSource
	fieldState map[*types.Var]int // 1 computing, 2 admissible, 3 inadmissible
	fnVisiting map[*FlowFunc]bool
}

func newWireChecker(pass *Pass) *wireChecker {
	w := &wireChecker{
		pass:       pass,
		witnessed:  map[*types.Var]bool{},
		sources:    map[*types.Var][]fieldSource{},
		fieldState: map[*types.Var]int{},
		fnVisiting: map[*FlowFunc]bool{},
	}
	// Witness W1: any field read inside a finiteness-guard function is
	// policed by it.
	for _, fn := range pass.Flow.Funcs {
		if !pass.Flow.FloatGuard(fn) {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			w.markWitness(n)
			return true
		})
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				// Witness W2: a field passed into a finiteness-guard
				// function is policed at the call site (a
				// finitePositive(s.Theta) helper).
				if local := pass.Flow.Local(calleeFunc(pass.Info, n)); local != nil && pass.Flow.FloatGuard(local) {
					for _, a := range n.Args {
						e := ast.Unparen(a)
						if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
							e = ast.Unparen(u.X)
						}
						w.markWitness(e)
					}
				}
			case *ast.AssignStmt:
				w.collectAssign(n)
			case *ast.CompositeLit:
				w.collectComposite(n)
			}
			return true
		})
	}
	return w
}

// markWitness records n as witnessed if it is a selector of an
// in-package struct field.
func (w *wireChecker) markWitness(n ast.Node) {
	sel, ok := n.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if s := w.pass.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok && v.Pkg() == w.pass.Pkg {
			w.witnessed[v] = true
		}
	}
}

func (w *wireChecker) collectAssign(assign *ast.AssignStmt) {
	for i, lhs := range assign.Lhs {
		sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok {
			continue
		}
		s := w.pass.Info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			continue
		}
		v, ok := s.Obj().(*types.Var)
		if !ok || v.Pkg() != w.pass.Pkg {
			continue
		}
		src := fieldSource{pos: assign.Pos()}
		switch assign.Tok {
		case token.ASSIGN, token.DEFINE:
			if len(assign.Rhs) == len(assign.Lhs) {
				src.expr = assign.Rhs[i]
				src.pos = assign.Rhs[i].Pos()
			}
			// Multi-value assignment from a call: not attributable.
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN:
			// f op= e keeps f admissible iff e is (the implicit f
			// operand is the field itself).
			src.expr = assign.Rhs[0]
			src.pos = assign.Rhs[0].Pos()
		case token.QUO_ASSIGN:
			src.expr = assign.Rhs[0]
			src.pos = assign.Rhs[0].Pos()
			src.quoDenom = true
		}
		w.sources[v] = append(w.sources[v], src)
	}
}

func (w *wireChecker) collectComposite(lit *ast.CompositeLit) {
	named := namedOf(w.pass.Info.TypeOf(lit))
	if named == nil || named.Obj().Pkg() != w.pass.Pkg {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			for j := 0; j < st.NumFields(); j++ {
				if st.Field(j).Name() == key.Name {
					w.sources[st.Field(j)] = append(w.sources[st.Field(j)], fieldSource{pos: kv.Value.Pos(), expr: kv.Value})
					break
				}
			}
		} else if i < st.NumFields() {
			w.sources[st.Field(i)] = append(w.sources[st.Field(i)], fieldSource{pos: elt.Pos(), expr: elt})
		}
	}
}

// fieldAdmissible reports whether field f is provably finite: witnessed
// by a guard, or every source admissible. Cycles (p.X += q.X merge
// helpers) resolve optimistically — a field is only inadmissible if
// some acyclic source path introduces an unproven value.
func (w *wireChecker) fieldAdmissible(f *types.Var) bool {
	if w.witnessed[f] {
		return true
	}
	switch w.fieldState[f] {
	case 1, 2:
		return true
	case 3:
		return false
	}
	w.fieldState[f] = 1
	ok := true
	for _, s := range w.sources[f] {
		if !w.sourceAdmissible(s) {
			ok = false
			break
		}
	}
	if ok {
		w.fieldState[f] = 2
	} else {
		w.fieldState[f] = 3
	}
	return ok
}

func (w *wireChecker) sourceAdmissible(s fieldSource) bool {
	if s.expr == nil {
		return false
	}
	if s.quoDenom {
		return nonzeroConst(w.pass, s.expr)
	}
	return w.admissible(s.expr)
}

// admissible is the structural finiteness grammar over expressions.
func (w *wireChecker) admissible(e ast.Expr) bool {
	e = ast.Unparen(e)
	if tv, ok := w.pass.Info.Types[e]; ok && tv.Value != nil {
		return true // constants are finite by construction
	}
	switch e := e.(type) {
	case *ast.UnaryExpr:
		if e.Op == token.ADD || e.Op == token.SUB {
			return w.admissible(e.X)
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.ADD, token.SUB, token.MUL:
			return w.admissible(e.X) && w.admissible(e.Y)
		case token.QUO:
			// Division is only safe with a provably nonzero denominator.
			return w.admissible(e.X) && nonzeroConst(w.pass, e.Y)
		}
	case *ast.SelectorExpr:
		if s := w.pass.Info.Selections[e]; s != nil && s.Kind() == types.FieldVal {
			if v, ok := s.Obj().(*types.Var); ok && v.Pkg() == w.pass.Pkg {
				return w.fieldAdmissible(v)
			}
		}
	case *ast.CallExpr:
		return w.admissibleCall(e)
	}
	return false
}

func (w *wireChecker) admissibleCall(call *ast.CallExpr) bool {
	info := w.pass.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion: integers convert to finite floats; float-to-float
		// preserves admissibility.
		if len(call.Args) != 1 {
			return false
		}
		if at := info.TypeOf(call.Args[0]); at != nil {
			if b, ok := at.Underlying().(*types.Basic); ok {
				if b.Info()&types.IsInteger != 0 {
					return true
				}
				if b.Info()&types.IsFloat != 0 {
					return w.admissible(call.Args[0])
				}
			}
		}
		return false
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	if pkg, typ, ok := recvNamed(fn); ok && pkg == "time" && typ == "Duration" {
		switch fn.Name() {
		case "Seconds", "Minutes", "Hours":
			return true // bounded by the int64 nanosecond range
		}
		return false
	}
	if funcPkgPath(fn) == "math" {
		switch fn.Name() {
		case "Abs", "Min", "Max", "Floor", "Ceil", "Trunc", "Round":
			for _, a := range call.Args {
				if !w.admissible(a) {
					return false
				}
			}
			return true
		}
		return false
	}
	local := w.pass.Flow.Local(fn)
	if local == nil {
		return false
	}
	if w.pass.Flow.FloatGuard(local) {
		return true
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named := namedOf(sig.Recv().Type()); named != nil && w.pass.Flow.GuardedType(named) {
			// A type that polices NaN/Inf at its write boundary yields
			// finite reads (obs.Observer's AddSeconds contract).
			return true
		}
	}
	// Otherwise the callee is admissible if everything it returns is.
	if w.fnVisiting[local] {
		return false
	}
	w.fnVisiting[local] = true
	defer delete(w.fnVisiting, local)
	sawReturn := false
	allOK := true
	ast.Inspect(local.Body, func(n ast.Node) bool {
		if !allOK {
			return false
		}
		if lit, ok := n.(*ast.FuncLit); ok && lit != local.Node {
			return false
		}
		if ret, ok := n.(*ast.ReturnStmt); ok {
			sawReturn = true
			if len(ret.Results) == 0 {
				allOK = false // bare return of named results: not tracked
				return false
			}
			for _, r := range ret.Results {
				if !w.admissible(r) {
					allOK = false
					return false
				}
			}
		}
		return true
	})
	return sawReturn && allOK
}

// nonzeroConst reports whether e is a nonzero numeric constant.
func nonzeroConst(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[ast.Unparen(e)]
	if !ok || tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value) != 0
	}
	return false
}
