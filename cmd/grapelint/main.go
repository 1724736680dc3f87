// Command grapelint is the repository's domain-invariant multichecker:
// it runs the internal/lint analyzer suite (nondeterminism, g5contract,
// g5format, obsspan, errdiscipline, lockdiscipline, goroutinejoin,
// fpreduce) over Go packages.
//
//	grapelint ./...              # lint the module
//	grapelint -unused-ignores ./...  # also fail on stale //lint:ignore comments
//	grapelint -list              # describe the analyzers
//
// Exit codes: 0 clean, 1 findings, 2 load or
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
	flag.Parse()

	if *listFlag {
		for _, a := range lint.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
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
