package main

import (
	"flag"
	"fmt"
	"io"
	"math"

	grape5 "repro"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/g5"
	"repro/internal/hostk"
	"repro/internal/nbody"
	"repro/internal/rng"
	"repro/internal/vec"
)

// runAccuracy reproduces the paper's §2 accuracy claims:
//
//   - the GRAPE-5 pipeline's pairwise force error is about 0.3 % RMS;
//   - the total force error of the treecode run on GRAPE-5 is ~0.1 %,
//     dominated by the tree approximation, not the hardware;
//   - results are "practically the same" when the same force
//     calculation uses standard 64-bit arithmetic.
//
// It prints pairwise pipeline error plus a θ table comparing the
// modified treecode on the float64 host engine and on the emulated
// hardware against exact direct summation.
//
//	perfreport accuracy -n 4000
func runAccuracy(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("perfreport accuracy", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 4000, "particle count (Plummer sphere)")
		seed     = fs.Uint64("seed", 1, "model seed")
		eps      = fs.Float64("eps", 0.01, "softening")
		ncrit    = fs.Int("ncrit", 256, "group bound")
		pairs    = fs.Int("pairs", 20000, "pairwise error sample size")
		frontier = fs.Bool("frontier", false, "also print the modified-vs-original accuracy/cost frontier (experiment E9)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// --- Pairwise pipeline error (hardware arithmetic alone) ---------
	// Through the engine every force call takes, one source per call.
	sys, err := g5.NewSystem(g5.DefaultConfig())
	if err != nil {
		return err
	}
	if err := sys.SetScale(-100, 100); err != nil {
		return err
	}
	eng := g5.NewEngine(sys, 1)
	r := rng.New(*seed)
	var sum2 float64
	count := 0
	for k := 0; k < *pairs; k++ {
		pi := vec.V3{X: r.Uniform(-50, 50), Y: r.Uniform(-50, 50), Z: r.Uniform(-50, 50)}
		pj := vec.V3{X: r.Uniform(-50, 50), Y: r.Uniform(-50, 50), Z: r.Uniform(-50, 50)}
		m := math.Exp(r.Uniform(-3, 3))
		req := core.Request{
			IPos: []vec.V3{pi},
			J:    hostk.JList{X: []float64{pj.X}, Y: []float64{pj.Y}, Z: []float64{pj.Z}, M: []float64{m}, N: 1},
			Acc:  make([]vec.V3, 1),
			Pot:  make([]float64, 1),
		}
		eng.Accumulate(&req)
		d := pj.Sub(pi)
		r2 := d.Norm2()
		if r2 < 1e-4 {
			continue
		}
		exact := d.Scale(m / (r2 * math.Sqrt(r2)))
		rel := req.Acc[0].Sub(exact).Norm() / exact.Norm()
		sum2 += rel * rel
		count++
	}
	fmt.Fprintf(w, "pairwise pipeline force error: %.3f%% RMS over %d pairs (paper §2: ~0.3%%)\n\n",
		100*math.Sqrt(sum2/float64(count)), count)

	// --- Total force error vs theta ----------------------------------
	model := grape5.Plummer(*n, 1, 1, 1, *seed)
	ref := model.Clone()
	nbody.DirectForces(ref, 1, *eps)

	fmt.Fprintf(w, "total force error of the modified treecode (N=%d Plummer, ncrit=%d):\n", *n, *ncrit)
	fmt.Fprintf(w, "%6s %28s %28s %8s\n", "theta", "float64 host (rms/p99)", "GRAPE-5 (rms/p99)", "hw adds")
	for _, theta := range []float64{0.3, 0.5, 0.75, 1.0, 1.25} {
		cfg := grape5.Config{Theta: theta, Ncrit: *ncrit, G: 1, Eps: *eps}
		errHost, err := treeError(model, ref, cfg, grape5.EngineHost)
		if err != nil {
			return err
		}
		errG5, err := treeError(model, ref, cfg, grape5.EngineGRAPE5)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%6.2f %15.4f%% /%8.4f%% %15.4f%% /%8.4f%% %7.2fx\n",
			theta, 100*errHost.RMS, 100*errHost.P99, 100*errG5.RMS, 100*errG5.P99,
			errG5.RMS/errHost.RMS)
	}
	fmt.Fprintln(w, "\npaper §2: total error ~0.1% 'dominated by the approximation made in the")
	fmt.Fprintln(w, "tree algorithm and not by the accuracy of the hardware'; the relative")
	fmt.Fprintln(w, "accuracy was 'practically the same' with 64-bit arithmetic.")

	if *frontier {
		fmt.Fprintln(w, "\naccuracy/cost frontier (E9; paper §3 with refs [15][17]):")
		thetas := []float64{1.4, 1.1, 0.9, 0.7, 0.55, 0.45}
		mod, err := analysis.AccuracyCostFrontier(model, analysis.FrontierModified, thetas, *ncrit, 1, *eps)
		if err != nil {
			return err
		}
		orig, err := analysis.AccuracyCostFrontier(model, analysis.FrontierOriginal, thetas, *ncrit, 1, *eps)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%6s %24s %24s\n", "theta", "modified (rms @ ints)", "original (rms @ ints)")
		for i := range thetas {
			fmt.Fprintf(w, "%6.2f %12.4f%% @ %.3g %12.4f%% @ %.3g\n",
				thetas[i], 100*mod[i].RMS, float64(mod[i].Interactions),
				100*orig[i].RMS, float64(orig[i].Interactions))
		}
		fmt.Fprintln(w, "\nthe modified algorithm is more accurate at every theta while doing")
		fmt.Fprintln(w, "more operations — both halves of the paper's §3 statement.")
	}
	return nil
}

// treeError primes a simulation over a copy of model on the given engine
// (the facade owns the hardware scale window and softening) and compares
// its initial forces with the exact reference.
func treeError(model, ref *nbody.System, cfg grape5.Config, engine grape5.EngineKind) (analysis.ErrorStats, error) {
	cfg.Engine = engine
	cfg.DT = 1 // required by the facade; priming takes no step
	sim, err := grape5.NewSimulation(model.Clone(), cfg)
	if err != nil {
		return analysis.ErrorStats{}, err
	}
	if err := sim.Prime(); err != nil {
		return analysis.ErrorStats{}, err
	}
	return analysis.CompareForces(sim.Sys, ref)
}
