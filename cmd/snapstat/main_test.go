package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/nbody"
	"repro/internal/snapio"
	"repro/internal/vec"
)

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("snapstat %v: %v", args, err)
	}
	return out.String()
}

// TestICsStatAndPGM drives the three forms in pipeline order: initial
// conditions to a file, the analysis of that file, and its Figure-4
// render.
func TestICsStatAndPGM(t *testing.T) {
	dir := t.TempDir()
	ics := filepath.Join(dir, "ics.g5")
	if out := runOK(t, "ics", "-grid", "8", "-o", ics); !strings.HasPrefix(out, "wrote "+ics+": N=280 ") {
		t.Errorf("ics reported:\n%s", out)
	}
	if out := runOK(t, "-in", ics); !strings.Contains(out, "N=280 ") {
		t.Errorf("analysis of %s does not report N=280:\n%s", ics, out)
	}

	pgm := filepath.Join(dir, "fig4.pgm")
	runOK(t, "pgm", "-in", ics, "-out", pgm, "-pixels", "64")
	img, err := os.ReadFile(pgm)
	if err != nil {
		t.Fatal(err)
	}
	if head := "P5\n64 64\n255\n"; !bytes.HasPrefix(img, []byte(head)) || len(img) != len(head)+64*64 {
		t.Errorf("PGM is %d bytes starting %q", len(img), img[:min(len(img), 16)])
	}
}

// TestFailedSectionsAreReported: on 3-particle snapshots the structure
// analyses cannot bin, each section keeps its heading and says why it
// was skipped. Coincident particles have a zero bounding box and 90 %
// radius; particles apart are one-member halos of zero radius.
func TestFailedSectionsAreReported(t *testing.T) {
	for pos, skipped := range map[[3]vec.V3][]string{
		{}: {"FoF (b=0.20, >=1 members)", "two-point correlation function",
			"measured power spectrum (shot-noise subtracted)"},
		{{}, {X: 1, Y: 2}, {X: 3, Y: 1, Z: 4}}: {"density profile of the largest halo"},
	} {
		sys := nbody.New(3)
		copy(sys.Pos, pos[:])
		sys.Mass = []float64{1, 1, 1}
		in := filepath.Join(t.TempDir(), "three.g5")
		if err := snapio.WriteFile(in, snapio.Header{Eps: 0.1}, sys); err != nil {
			t.Fatal(err)
		}
		out := runOK(t, "-in", in, "-minmembers", "1")
		for _, title := range skipped {
			if !strings.Contains(out, "\n"+title+": skipped: analysis: ") {
				t.Errorf("no skipped line for %q:\n%s", title, out)
			}
		}
	}
}

func TestUnknownSubcommandFailsWithUsage(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"icss"}, &out)
	if err == nil || !strings.Contains(err.Error(), "usage:") || !strings.Contains(err.Error(), `"icss"`) {
		t.Errorf("err = %v, want the usage text naming the bad subcommand", err)
	}
	if err := run([]string{"pgm"}, &out); err == nil || !strings.Contains(err.Error(), "missing -in") {
		t.Errorf("pgm without -in: err = %v", err)
	}
	if out.Len() != 0 {
		t.Errorf("wrote a report on a refused command line: %q", out.String())
	}
}
