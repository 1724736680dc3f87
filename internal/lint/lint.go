// Package lint is the repository's domain-invariant static analysis
// suite: a small analyzer framework (mirroring the shape of
// golang.org/x/tools/go/analysis, but built only on the standard
// library so the module stays dependency-free) plus six analyzers for
// invariants the compiler cannot see: nondeterminism and fpreduce
// (bit-reproducibility of the physics packages), errdiscipline,
// obsspan, lockdiscipline and goroutinejoin. A rule is here only
// because a defect seeded into the real tree is reported by it and by
// no test, fuzzer, alloc gate, vet or race run; DESIGN.md §10 records
// that defect for each, and experiments/E43.json the seeds themselves.
//
// The analyzers run over type-checked packages loaded by Loader (see
// load.go) and are driven by cmd/grapelint (`grapelint ./...`).
//
// # Suppression policy
//
// A finding that is intentional is suppressed in place with
//
//	//lint:ignore <analyzer> <reason>
//
// on the flagged line or the line directly above it. The analyzer name
// may be a comma-separated list; the reason is mandatory — a bare
// ignore is itself a finding. DESIGN.md §10 documents when suppression
// is acceptable.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one static check. Run inspects a single package through
// its Pass and reports findings with Pass.Reportf.
type Analyzer struct {
	// Name is the short identifier used in diagnostics and ignore
	// comments (e.g. "nondeterminism").
	Name string
	// Doc is the one-line description shown by `grapelint -list`.
	Doc string
	// Run performs the analysis on one package.
	Run func(*Pass) error
}

// Pass carries one type-checked package through an Analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// Flow is the package's shared fact store (call graph, blocking
	// facts), built once per package and reused by every analyzer in
	// the run.
	Flow *Flow

	diags *[]Diagnostic
}

// Parents returns the shared node→parent map for file.
func (p *Pass) Parents(file *ast.File) map[ast.Node]ast.Node {
	return p.Flow.Parents(file)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// UnusedIgnore is a //lint:ignore comment that suppressed nothing in a
// run of the full suite — a stale suppression that should be deleted
// before it hides a future regression.
type UnusedIgnore struct {
	Pos token.Pos
	// Analyzers is the comma-separated name list as written.
	Analyzers string
}

// Run applies the analyzers to each package and returns the surviving
// findings (ignore comments applied), sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := RunDetail(pkgs, analyzers)
	return diags, err
}

// RunDetail is Run plus stale-suppression detection: the second result
// lists every //lint:ignore comment that matched no diagnostic. It is
// only meaningful when the run covers the full analyzer suite — an
// ignore for an analyzer that did not run looks unused.
func RunDetail(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []UnusedIgnore, error) {
	var diags []Diagnostic
	var unused []UnusedIgnore
	for _, pkg := range pkgs {
		var pkgDiags []Diagnostic
		flow := NewFlow(pkg)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Flow:     flow,
				diags:    &pkgDiags,
			}
			if err := a.Run(pass); err != nil {
				return nil, nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
		kept, stale := applyIgnores(pkg, pkgDiags)
		diags = append(diags, kept...)
		unused = append(unused, stale...)
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	sort.Slice(unused, func(i, j int) bool { return unused[i].Pos < unused[j].Pos })
	return diags, unused, nil
}

// ignoreRe matches "//lint:ignore name1,name2 reason..." — the reason
// is mandatory, mirroring staticcheck's convention.
var ignoreRe = regexp.MustCompile(`^//\s*lint:ignore\s+(\S+)\s+\S`)

// ignoreEntry is one parsed //lint:ignore comment with its coverage.
type ignoreEntry struct {
	pos   token.Pos
	raw   string // the analyzer-name list as written
	names map[string]bool
	keys  [2]string // "file:line" for own line and the next
	used  bool
}

// applyIgnores drops findings covered by an ignore comment on the same
// line or the line directly above, and reports the comments that
// covered nothing.
func applyIgnores(pkg *Package, diags []Diagnostic) ([]Diagnostic, []UnusedIgnore) {
	var entries []*ignoreEntry
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				e := &ignoreEntry{pos: c.Pos(), raw: m[1], names: map[string]bool{}}
				for _, n := range strings.Split(m[1], ",") {
					e.names[n] = true
				}
				// The comment covers its own line and the next one, so
				// it works both inline and as a line above.
				e.keys[0] = fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				e.keys[1] = fmt.Sprintf("%s:%d", pos.Filename, pos.Line+1)
				entries = append(entries, e)
			}
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		suppressed := false
		for _, e := range entries {
			if (e.keys[0] == key || e.keys[1] == key) && (e.names[d.Analyzer] || e.names["all"]) {
				e.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	var unused []UnusedIgnore
	for _, e := range entries {
		if !e.used {
			unused = append(unused, UnusedIgnore{Pos: e.pos, Analyzers: e.raw})
		}
	}
	return kept, unused
}

// physicsPackages is the import-path set whose results must be
// bit-reproducible: everything that touches particle state, forces or
// the hardware model. nondeterminism and fpreduce fire only inside
// this set; goroutinejoin's scope includes it.
var physicsPackages = map[string]bool{
	"repro/internal/core":      true,
	"repro/internal/octree":    true,
	"repro/internal/g5":        true,
	"repro/internal/hostk":     true,
	"repro/internal/integrate": true,
	"repro/internal/nbody":     true,
	"repro/internal/cosmo":     true,
	"repro/internal/pm":        true,
	"repro/internal/morton":    true,
	"repro/internal/vec":       true,
}

// g5Path is the hardware package; errdiscipline watches its errors.
const g5Path = "repro/internal/g5"

// rootPath is the module's root package (the public simulation API);
// errdiscipline watches its errors too.
const rootPath = "repro"

// servePath is the multi-tenant job server, in goroutinejoin's scope.
const servePath = "repro/internal/serve"
