// Package linttest is the golden-fixture harness for the internal/lint
// analyzers: it type-checks a fixture directory under a caller-chosen
// import path (so path-scoped analyzers apply exactly as they do on the
// real tree), runs the analyzers, and matches the diagnostics against
// the fixture's expectation comments in both directions — every finding
// must be expected, and every expectation must fire.
//
// An expectation is a trailing comment on the line the diagnostic is
// reported at:
//
//	rand.Float64() // want "global math/rand"
//
// Each quoted string is a regular expression; a line carrying several
// quoted strings expects that many distinct diagnostics.
package linttest

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
)

var (
	wantRe  = regexp.MustCompile(`//\s*want\b(.*)$`)
	quoteRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)
)

// expectation is one parsed want clause, consumed by at most one
// diagnostic.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	met  bool
}

// Run lints dir as the package importPath and asserts the diagnostics
// match the fixture's want comments exactly.
func Run(t *testing.T, dir, importPath string, analyzers ...*lint.Analyzer) {
	t.Helper()
	names, err := goFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}
	loader := lint.NewLoader("")
	files, err := loader.ParseFiles(dir, names)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Check(importPath, files)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run([]*lint.Package{pkg}, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	wants, err := collectWants(dir, names)
	if err != nil {
		t.Fatal(err)
	}

	for _, d := range diags {
		pos := loader.Fset.Position(d.Pos)
		if !claim(wants, pos.Filename, pos.Line, d.Message) {
			t.Errorf("unexpected diagnostic at %s: %s: %s", pos, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: expected diagnostic matching %q did not fire", w.file, w.line, w.raw)
		}
	}
}

// claim marks the first unmet expectation on file:line whose regexp
// matches the message, reporting whether one existed.
func claim(wants []*expectation, file string, line int, msg string) bool {
	for _, w := range wants {
		if !w.met && w.file == file && w.line == line && w.re.MatchString(msg) {
			w.met = true
			return true
		}
	}
	return false
}

// goFiles lists the .go files of the fixture directory in name order.
func goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// collectWants scans the fixture sources for want comments. The file
// key is the dir-joined path, matching the positions the loader's
// FileSet reports.
func collectWants(dir string, names []string) ([]*expectation, error) {
	var wants []*expectation
	for _, name := range names {
		path := filepath.Join(dir, name)
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			quotes := quoteRe.FindAllStringSubmatch(m[1], -1)
			if len(quotes) == 0 {
				return nil, fmt.Errorf("%s:%d: want comment with no quoted pattern", path, line)
			}
			for _, q := range quotes {
				re, err := regexp.Compile(q[1])
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want pattern %q: %v", path, line, q[1], err)
				}
				wants = append(wants, &expectation{file: path, line: line, re: re, raw: q[1]})
			}
		}
		cerr := f.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
		if cerr != nil {
			return nil, cerr
		}
	}
	return wants, nil
}
