package main

import (
	"bytes"
	"fmt"
	"regexp"
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

func TestDefaultReportHeadlineConstants(t *testing.T) {
	out := runOK(t, "-grid", "8")
	for _, want := range []string{"= 109.44 Gflops", "$40870", "== E4/E5: run statistics (fresh z=24 ICs, grid 8, lattice 0, N=280) =="} {
		if !strings.Contains(out, want) {
			t.Errorf("default report lacks %q:\n%s", want, out)
		}
	}
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

// TestAccuracyReproducesSection2 gates the paper's §2 claims at tiny
// scale: the pipeline's pairwise error is ~0.3 % RMS, and at θ=0.75 the
// total force error on the emulated hardware is that of the float64
// host to within the band below — dominated by the tree, not the
// hardware.
func TestAccuracyReproducesSection2(t *testing.T) {
	out := runOK(t, "accuracy", "-n", "1000", "-pairs", "5000")

	m := regexp.MustCompile(`pairwise pipeline force error: ([0-9.]+)% RMS`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no pairwise line:\n%s", out)
	}
	if rms, _ := strconv.ParseFloat(m[1], 64); rms < 0.2 || rms > 0.4 {
		t.Errorf("pairwise RMS %v%% outside [0.2, 0.4]", rms)
	}

	m = regexp.MustCompile(`(?m)^\s*0\.75 .* ([0-9.]+)x$`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no theta=0.75 row:\n%s", out)
	}
	if ratio, _ := strconv.ParseFloat(m[1], 64); ratio < 0.95 || ratio > 1.25 {
		t.Errorf("GRAPE/host total-error ratio %v at theta=0.75 outside [0.95, 1.25]", ratio)
	}
}

// TestFaultsReportLosesOneBoard runs the degraded-mode section: six
// priming passes over the guarded path while board 2 dies, read through
// the cluster's one shard.
func TestFaultsReportLosesOneBoard(t *testing.T) {
	out := runOK(t, "-grid", "8", "-faults")
	_, section, ok := strings.Cut(out, "== degraded-mode offload")
	if !ok {
		t.Fatalf("no degraded-mode section:\n%s", out)
	}
	steps := regexp.MustCompile(`(?m)^step \d+: boards=(\d+) .*$`).FindAllStringSubmatch(section, -1)
	if len(steps) != 6 || steps[0][1] != "2" || steps[5][1] != "1" {
		t.Fatalf("want 6 step lines going from boards=2 to boards=1:\n%s", section)
	}
	if !strings.Contains(steps[5][0], " excluded=1 ") {
		t.Errorf("last step's recovery does not exclude one board: %q", steps[5][0])
	}
}

func TestUnknownSubcommandFailsWithUsage(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"ngsweeep"}, &out)
	if err == nil || !strings.Contains(err.Error(), "usage:") || !strings.Contains(err.Error(), `"ngsweeep"`) {
		t.Errorf("err = %v, want the usage text naming the bad subcommand", err)
	}
	if out.Len() != 0 {
		t.Errorf("wrote a report for an unknown subcommand: %q", out.String())
	}
	if err := run([]string{"ngsweep", "-ncrit", "500,0"}, &out); err == nil {
		t.Error("n_g = 0 accepted")
	}
	if err := run([]string{"record", "-out", "x.json"}, &out); err == nil || out.Len() != 0 {
		t.Errorf("record with an argument: err = %v, wrote %d bytes", err, out.Len())
	}
}
