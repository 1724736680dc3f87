// Command grapelint is the repository's domain-invariant multichecker:
// it runs the internal/lint analyzer suite — the per-function checks
// (nondeterminism, g5contract, g5format, obsspan, errdiscipline,
// hostk) and the dataflow analyzers (lockdiscipline, goroutinejoin,
// fpreduce, wireschema, hotalloc) — over Go packages.
//
//	grapelint ./...              # lint the module
//	grapelint -unused-ignores ./...  # also fail on stale //lint:ignore comments
//	grapelint -list              # describe the analyzers
//	grapelint -escapes           # compare the hot packages' compiler escape
//	                             # inventory (-gcflags=-m) against the baseline
//	grapelint -escapes -write    # rewrite the baseline
//
// Exit codes: 0 clean, 1 findings (or baseline drift), 2 load or
// internal error — so CI can distinguish "the code is wrong" from "the
// tool could not run".
//
// Intentional violations are suppressed in place with
// `//lint:ignore <analyzer> <reason>`; see DESIGN.md §10 for the
// policy. The -unused-ignores mode keeps that honest: a suppression
// whose finding no longer fires is itself reported.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	listFlag := flag.Bool("list", false, "describe the analyzers and exit")
	unusedFlag := flag.Bool("unused-ignores", false, "also report //lint:ignore comments that suppress nothing")
	escapesFlag := flag.Bool("escapes", false, "compare the hot packages' compiler escape inventory against the baseline")
	baselineFlag := flag.String("baseline", "internal/lint/escape_baseline.txt", "escape baseline file (with -escapes)")
	writeFlag := flag.Bool("write", false, "rewrite the escape baseline instead of comparing (with -escapes)")
	flag.Parse()

	switch {
	case *listFlag:
		for _, a := range lint.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	case *escapesFlag:
		os.Exit(runEscapes(*baselineFlag, *writeFlag))
	}

	os.Exit(runStandalone(flag.Args(), *unusedFlag))
}

// runStandalone lints the packages matching the patterns (default the
// whole module) and prints findings like a compiler would. With
// unusedIgnores, stale suppression comments are findings too.
func runStandalone(patterns []string, unusedIgnores bool) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader := lint.NewLoader("")
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	diags, unused, err := lint.RunDetail(pkgs, lint.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", loader.Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	findings := len(diags)
	if unusedIgnores {
		for _, u := range unused {
			fmt.Fprintf(os.Stderr, "%s: unused-ignores: //lint:ignore %s suppresses nothing; delete it before it hides a regression\n", loader.Fset.Position(u.Pos), u.Analyzers)
		}
		findings += len(unused)
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "grapelint: %d finding(s)\n", findings)
		return 1
	}
	return 0
}

// runEscapes compares (or with write, records) the compiler's escape
// inventory for the hot packages against the committed baseline.
func runEscapes(baselinePath string, write bool) int {
	current, err := lint.EscapeInventory("", lint.HotEscapePatterns())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if write {
		if err := os.WriteFile(baselinePath, []byte(lint.FormatEscapes(current)), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "grapelint: wrote %d escape entries to %s\n", len(current), baselinePath)
		return 0
	}
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	baseline, err := lint.ParseEscapeBaseline(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	diffs := lint.DiffEscapes(current, baseline)
	for _, d := range diffs {
		fmt.Fprintf(os.Stderr, "grapelint -escapes: %s\n", d)
	}
	if len(diffs) > 0 {
		fmt.Fprintf(os.Stderr, "grapelint: escape inventory drifted from %s (%d difference(s))\n", baselinePath, len(diffs))
		return 1
	}
	return 0
}
