package main

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"repro/internal/g5"
	"repro/internal/perf"
)

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("perfreport %v: %v", args, err)
	}
	return out.String()
}

func TestNgSweepStarsTheOptimum(t *testing.T) {
	ncrits := []int{8, 32, 128, 512}
	out := runOK(t, "ngsweep", "-grid", "8", "-ncrit", "8,32,128,512")

	sys, err := loadSystem("", 8, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	points, err := perf.NgSweep(sys, 0.75, ncrits, perf.DS10(), g5.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := perf.Optimum(points).Ncrit

	var starred []int
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 8 {
			continue
		}
		ng, err := strconv.Atoi(f[0])
		if err != nil {
			continue // header
		}
		rows++
		if f[len(f)-1] == "*" {
			starred = append(starred, ng)
		}
	}
	if rows != len(ncrits) {
		t.Errorf("table has %d rows, want %d:\n%s", rows, len(ncrits), out)
	}
	if len(starred) != 1 || starred[0] != want {
		t.Errorf("starred n_g %v, perf.Optimum says %d:\n%s", starred, want, out)
	}
	if !strings.Contains(out, fmt.Sprintf("optimal n_g = %d ", want)) {
		t.Errorf("summary line does not name n_g=%d:\n%s", want, out)
	}
}

// TestUnknownSubcommandFailsWithUsage: a bad subcommand and every
// input a section cannot price are refused with the usage text before
// anything is printed.
func TestUnknownSubcommandFailsWithUsage(t *testing.T) {
	for _, args := range [][]string{
		{"ngsweeep"},
		{"ngsweep", "-ncrit", "500,0"},
		{"ngsweep", "-theta", "-1"},
		{"-theta", "NaN"},
		{"-theta", "+Inf"},
		{"-in", "z0.g5", "-full"},
		{"accuracy", "-pairs", "0"},
		{"accuracy", "-n", "2"},
		{"accuracy", "-n", "256"}, // = -ncrit: one group, an exact host walk
		{"record", "-out", "x.json"},
	} {
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), "usage:") {
			t.Errorf("perfreport %v: err = %v, want the usage text", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("perfreport %v wrote a report: %q", args, out.String())
		}
	}
	if err := run([]string{"ngsweeep"}, io.Discard); err == nil || !strings.Contains(err.Error(), `"ngsweeep"`) {
		t.Errorf("err = %v, want it to name the bad subcommand", err)
	}
}
