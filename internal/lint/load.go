package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader lists, parses and type-checks packages of the enclosing Go
// module using only the standard toolchain: metadata and compiled
// export data come from `go list -export`, and imports are resolved
// through go/importer's gc reader with a lookup into that export map —
// no third-party loader, which keeps the module dependency-free.
type Loader struct {
	// Dir is the directory `go list` runs in (the module root or any
	// directory inside it). Empty means the current directory.
	Dir string

	Fset *token.FileSet

	mu      sync.Mutex
	exports map[string]string // import path -> export data file
	imp     types.ImporterFrom
}

// NewLoader returns a loader rooted at dir.
func NewLoader(dir string) *Loader {
	return &Loader{Dir: dir, Fset: token.NewFileSet(), exports: map[string]string{}}
}

// goPkg is the subset of `go list -json` output the loader consumes.
type goPkg struct {
	ImportPath string
	Name       string
	Dir        string
	Standard   bool
	DepOnly    bool
	Export     string
	GoFiles    []string
	Error      *struct{ Err string }
}

// goList runs `go list -export -json` with the given extra arguments
// and decodes the JSON stream.
func (l *Loader) goList(args ...string) ([]*goPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-export", "-json"}, args...)...)
	cmd.Dir = l.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*goPkg
	for {
		p := new(goPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// register records the export data files of the listed packages.
func (l *Loader) register(pkgs []*goPkg) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, p := range pkgs {
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
	}
}

// lookup resolves an import path to its export data for the gc
// importer, listing the package on demand when it was not part of the
// original closure (e.g. a stdlib package only a test fixture imports).
func (l *Loader) lookup(path string) (io.ReadCloser, error) {
	l.mu.Lock()
	file := l.exports[path]
	l.mu.Unlock()
	if file == "" {
		pkgs, err := l.goList(path)
		if err != nil {
			return nil, fmt.Errorf("lint: resolving import %q: %w", path, err)
		}
		l.register(pkgs)
		l.mu.Lock()
		file = l.exports[path]
		l.mu.Unlock()
	}
	if file == "" {
		return nil, fmt.Errorf("lint: no export data for %q", path)
	}
	return os.Open(file)
}

// importer returns the shared gc-export-data importer.
func (l *Loader) importer() types.ImporterFrom {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.imp == nil {
		l.imp = importer.ForCompiler(l.Fset, "gc", l.lookup).(types.ImporterFrom)
	}
	return l.imp
}

// Load lists the packages matching the patterns, registers the export
// data of their full dependency closure, and parses and type-checks
// each matched (non-dependency) package from source. Test files are
// not loaded: the analyzers police production code; tests exercise
// hardware misuse on purpose.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	listed, err := l.goList(append([]string{"-deps"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	l.register(listed)
	var out []*Package
	for _, p := range listed {
		if p.DepOnly || p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkg, err := l.check(p.ImportPath, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// ParseFiles parses the given files (with comments, for ignore
// directives) into the loader's FileSet.
func (l *Loader) ParseFiles(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(l.Fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Check type-checks already-parsed files as the package at importPath.
// The fixture harness uses it to type-check testdata packages under a
// chosen import path so path-scoped analyzers apply.
func (l *Loader) Check(importPath string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l.importer()}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	return &Package{
		Path:  importPath,
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// check parses and type-checks one listed package from source.
func (l *Loader) check(importPath, dir string, goFiles []string) (*Package, error) {
	files, err := l.ParseFiles(dir, goFiles)
	if err != nil {
		return nil, err
	}
	return l.Check(importPath, files)
}
