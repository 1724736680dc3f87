package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	grape5 "repro"
	"repro/internal/g5"
	"repro/internal/perf"
)

// runNgSweep reproduces the paper's §3 experiment: the optimal group
// size n_g of the modified tree algorithm. For each n_g it runs the
// full traversal over a snapshot (counting real interactions and list
// lengths), models the host time on the calibrated DS10 model and the
// GRAPE time on the g5 timing model, and prints the time balance. The
// paper: "For the present configuration, the optimal n_g is around
// 2000."
//
//	perfreport ngsweep -in snapshot.g5
//	perfreport ngsweep -grid 128 -lattice 160     # the paper's N
func runNgSweep(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("perfreport ngsweep", flag.ContinueOnError)
	var (
		in      = fs.String("in", "", "snapshot file to sweep over (overrides -grid)")
		grid    = fs.Int("grid", recordCosmoGrid, "IC grid when no snapshot given (power of two)")
		lattice = fs.Int("lattice", 0, "particle lattice (0 = grid); 160 with -grid 128 gives the paper's N")
		seed    = fs.Uint64("seed", recordSeed, "IC seed")
		theta   = fs.Float64("theta", grape5.DefaultTheta, "opening parameter")
		list    = fs.String("ncrit", "125,250,500,1000,2000,4000,8000,16000",
			"comma-separated n_g values")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ncrits, err := parseNcrits(*list)
	if err := refuse(fs, rule{err != nil, fmt.Sprint(err)}, thetaRule(*theta)); err != nil {
		return err
	}
	sys, err := loadSystem(*in, *grid, *lattice, *seed)
	if err != nil {
		return err
	}
	host := perf.DS10()
	sw, err := sweeps("cosmo", sys, *seed, *theta, ncrits, []int{1}, host, g5.DefaultConfig())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "n_g sweep: N=%d theta=%.2f host=%s\n", sys.N(), *theta, host.Name)
	fmt.Fprintf(w, "%8s %8s %12s %10s %9s %9s %9s %9s\n",
		"n_g", "groups", "interactions", "avg list", "T_host", "T_pipe", "T_bus", "T_total")
	for _, p := range sw[0].Points {
		mark := " "
		if p.Ncrit == sw[0].OptimalNcrit {
			mark = "*"
		}
		fmt.Fprintf(w, "%8d %8d %12.4g %10.0f %8.3fs %8.3fs %8.3fs %8.3fs %s\n",
			p.Ncrit, p.Groups, float64(p.Interactions), p.AvgList,
			p.THostModel, p.TGrape, p.TComm, p.TTotalModel, mark)
	}
	fmt.Fprintf(w, "\noptimal n_g = %d (paper §3: \"around 2000\" for the DS10 + GRAPE-5 ratio)\n",
		sw[0].OptimalNcrit)
	return nil
}

// parseNcrits parses a comma-separated list of n_g values ≥ 1.
func parseNcrits(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad ncrit value %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}
