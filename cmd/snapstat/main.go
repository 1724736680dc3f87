// Command snapstat analyses a snapshot — energy, FoF halos, mass
// function, density profile, ξ(r), P(k) — and writes the files on
// either side of a run: cosmological initial conditions (ics) and the
// paper's Figure 4, the 45×45×2.5 Mpc slab, as a PGM image (pgm).
//
//	snapstat -in z0.g5
//	snapstat ics -grid 32 -seed 1 -o ics.g5
//	snapstat pgm -in z0.g5 -out fig4.pgm -radius 50
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	grape5 "repro"
	"repro/internal/analysis"
	"repro/internal/snapio"
	"repro/internal/units"
	"repro/internal/vec"
)

const usage = `usage:
  snapstat -in f [flags]       energy, FoF halos, mass function, density profile, xi(r), P(k)
  snapstat ics [flags]         cosmological initial conditions, written as a snapshot
  snapstat pgm -in f [flags]   Figure 4: the 45x45x2.5 Mpc slab as a PGM image
run any form with -h for its flags`

func main() {
	log.SetFlags(0)
	log.SetPrefix("snapstat: ")
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run dispatches on the optional leading subcommand, reporting to w.
func run(args []string, w io.Writer) error {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return runStat(args, w)
	}
	switch args[0] {
	case "ics":
		return runICs(args[1:], w)
	case "pgm":
		return runPGM(args[1:], w)
	}
	return fmt.Errorf("unknown subcommand %q\n%s", args[0], usage)
}

// readSnapshot reads the snapshot named by -in and recentres it.
func readSnapshot(in string) (snapio.Header, *grape5.System, error) {
	if in == "" {
		return snapio.Header{}, nil, fmt.Errorf("missing -in\n%s", usage)
	}
	h, sys, err := snapio.ReadFile(in)
	if err == nil {
		sys.Recenter()
	}
	return h, sys, err
}

// heading prints a section's heading, or why it was skipped; true means rows follow.
func heading(w io.Writer, title string, err error) bool {
	if err != nil {
		fmt.Fprintf(w, "\n%s: skipped: %v\n", title, err)
		return false
	}
	fmt.Fprintf(w, "\n%s:\n", title)
	return true
}

func runStat(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("snapstat", flag.ContinueOnError)
	var (
		in     = fs.String("in", "", "snapshot file (required)")
		g      = fs.Float64("G", units.G, "gravitational constant for energy accounting")
		eps    = fs.Float64("eps", 0, "softening for energy accounting (0 = header value)")
		link   = fs.Float64("b", 0.2, "FoF linking parameter")
		minN   = fs.Int("minmembers", 20, "minimum halo membership")
		nhalo  = fs.Int("halos", 10, "number of halos to list")
		xiBins = fs.Int("xibins", 8, "correlation-function bins (0 disables)")
		energy = fs.Bool("energy", true, "compute exact O(N^2) energy (slow for large N)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	h, sys, err := readSnapshot(*in)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "snapshot %s: N=%d t=%.5g step=%d scale=%.4g\n", *in, sys.N(), h.Time, h.Step, h.Scale)

	if *energy {
		if *eps == 0 {
			*eps = h.Eps
		}
		rep := analysis.Energy(sys, *g, *eps)
		fmt.Fprintf(w, "energy: K=%.5g U=%.5g E=%.5g virial=%.3f\n",
			rep.Kinetic, rep.Potential, rep.Total(), rep.VirialRatio())
	}

	fof := fmt.Sprintf("FoF (b=%.2f, >=%d members)", *link, *minN)
	halos, err := analysis.FriendsOfFriends(sys, analysis.FOFOptions{LinkParam: *link, MinMembers: *minN})
	if err != nil {
		fmt.Fprintf(w, "\n%s: skipped: %v\n", fof, err)
	} else {
		var inHalos int
		for _, hh := range halos {
			inHalos += hh.N
		}
		fmt.Fprintf(w, "\n%s: %d halos, %.1f%% of particles bound\n",
			fof, len(halos), 100*float64(inHalos)/float64(sys.N()))
		fmt.Fprintf(w, "%4s %8s %12s %22s %8s\n", "#", "members", "mass", "centre", "R90")
		for i := 0; i < min(*nhalo, len(halos)); i++ {
			hh := halos[i]
			fmt.Fprintf(w, "%4d %8d %12.4g (%6.2f,%6.2f,%6.2f) %8.3f\n",
				i+1, hh.N, hh.Mass, hh.Center.X, hh.Center.Y, hh.Center.Z, hh.R90)
		}
	}

	if len(halos) > 0 {
		fmt.Fprintln(w, "\ncumulative halo mass function:")
		for _, b := range analysis.MassFunction(halos, 6) {
			fmt.Fprintf(w, "  N(>%.3g) = %d\n", b.MinMass, b.Count)
		}
		big := halos[0]
		bins, err := analysis.DensityProfile(sys, big.Center, big.R90/30, big.R90, 8)
		if heading(w, "density profile of the largest halo", err) {
			for _, b := range bins {
				if b.Count > 0 {
					fmt.Fprintf(w, "  rho(%8.3f) = %12.4g  (%d particles)\n", b.RMid, b.Density, b.Count)
				}
			}
		}
	}

	if *xiBins > 0 {
		r90 := analysis.LagrangianRadius(sys, vec.Zero, 0.9)
		xi, err := analysis.CorrelationFunction(sys, vec.Zero, r90, r90/100, r90/2, *xiBins, 2_000_000, 17)
		if heading(w, "two-point correlation function", err) {
			for _, b := range xi {
				fmt.Fprintf(w, "  xi(%8.3f) = %10.3f\n", b.RMid, b.Xi)
			}
		}
		// Measured power spectrum over the 90%-mass cube.
		box := vec.NewBox(vec.V3{X: -r90, Y: -r90, Z: -r90}, vec.V3{X: r90, Y: r90, Z: r90})
		pk, err := analysis.MeasurePowerSpectrum(sys, box, 64, *xiBins)
		if heading(w, "measured power spectrum (shot-noise subtracted)", err) {
			for _, b := range pk {
				fmt.Fprintf(w, "  P(k=%7.3f) = %12.4g  (%d modes)\n", b.K, b.P, b.Modes)
			}
		}
	}
	return nil
}

func runICs(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("snapstat ics", flag.ContinueOnError)
	var (
		grid   = fs.Int("grid", 32, "grid size per dimension (power of two)")
		radius = fs.Float64("radius", units.PaperRadiusMpc, "comoving sphere radius in Mpc")
		zinit  = fs.Float64("zinit", units.PaperZInit, "starting redshift")
		sigma8 = fs.Float64("sigma8", 0.67, "sigma_8 normalisation")
		seed   = fs.Uint64("seed", 1, "realisation seed")
		out    = fs.String("o", "ics.g5", "output snapshot file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	p := grape5.CosmoSphereParams{GridN: *grid, RadiusMpc: *radius, ZInit: *zinit, Sigma8: *sigma8, Seed: *seed}
	cs, err := grape5.NewCosmoSphere(p, 1)
	if err != nil {
		return err
	}
	if err := snapio.WriteFile(*out, snapio.Header{Time: cs.Schedule.T0, Scale: cs.AInit}, cs.Sys); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s: N=%d particles at z=%.1f\n", *out, cs.Sys.N(), *zinit)
	fmt.Fprintf(w, "particle mass %.4g x 1e10 Msun (paper: %.3g Msun at N=%d)\n",
		cs.ParticleMass, float64(units.PaperParticleMass), units.PaperN)
	fmt.Fprintf(w, "comoving spacing %.3g Mpc, physical start radius %.3g Mpc\n",
		cs.GridSpacing, cs.AInit**radius)
	return nil
}

func runPGM(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("snapstat pgm", flag.ContinueOnError)
	var (
		in     = fs.String("in", "", "input snapshot file (required)")
		out    = fs.String("out", "fig4.pgm", "output PGM file")
		radius = fs.Float64("radius", 50, "sphere radius defining the Figure-4 slab geometry")
		pixels = fs.Int("pixels", 512, "image width and height in pixels")
		ascii  = fs.Bool("ascii", true, "also print ASCII art to stdout")
		cols   = fs.Int("cols", 72, "ASCII art width")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	h, sys, err := readSnapshot(*in)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "snapshot: N=%d t=%.4g step=%d scale=%.4g\n", sys.N(), h.Time, h.Step, h.Scale)
	proj, err := analysis.Project(sys, analysis.Figure4Slab(*radius), *pixels, *pixels)
	if err != nil {
		return err
	}
	var img bytes.Buffer
	if err := proj.WritePGM(&img); err != nil {
		return err
	}
	if err := os.WriteFile(*out, img.Bytes(), 0o666); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s: %d particles in slab, clustering contrast %.2f\n",
		*out, proj.Kept, proj.ClusteringContrast())
	if *ascii {
		fmt.Fprintln(w, proj.ASCII(*cols))
	}
	return nil
}
