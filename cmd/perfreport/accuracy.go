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

// accuracyInputs are §2's inputs: perfreport accuracy's flags.
type accuracyInputs struct {
	N     int     `json:"n"`
	Seed  uint64  `json:"seed"`
	Eps   float64 `json:"eps"`
	Ncrit int     `json:"ncrit"`
	Pairs int     `json:"pairs"`
}

// bind makes in's fields the flags of fs, set to their defaults. The
// record takes them unparsed, so flag-free perfreport accuracy prints
// the record's §2.
func (in *accuracyInputs) bind(fs *flag.FlagSet) {
	fs.IntVar(&in.N, "n", 4000, "particle count (Plummer sphere); must exceed -ncrit")
	fs.Uint64Var(&in.Seed, "seed", recordSeed, "model seed")
	fs.Float64Var(&in.Eps, "eps", 0.01, "softening")
	fs.IntVar(&in.Ncrit, "ncrit", 256, "group bound")
	fs.IntVar(&in.Pairs, "pairs", 20000, "pairwise error sample size")
}

// recordAccuracy is §2: the pipeline's pairwise force error (over the
// PairsCounted of Pairs drawn that lie farther apart than 0.01), and per
// θ the total force error of the modified treecode on the float64 host
// and on the emulated hardware against direct summation.
type recordAccuracy struct {
	Model string `json:"model"`
	accuracyInputs
	PairwiseRMS  float64       `json:"pairwise_rms"`
	PairsCounted int           `json:"pairs_counted"`
	Thetas       []accuracyRow `json:"thetas"`
}

type accuracyRow struct {
	Theta    float64 `json:"theta"`
	HostRMS  float64 `json:"host_rms"`
	HostP99  float64 `json:"host_p99"`
	GrapeRMS float64 `json:"grape_rms"`
	GrapeP99 float64 `json:"grape_p99"`
	// GrapeOverHost is what the hardware adds: GrapeRMS over HostRMS.
	GrapeOverHost float64 `json:"grape_over_host"`
}

// accuracy reproduces §2: the pipeline's pairwise error is about 0.3 %
// RMS; the treecode's total error on GRAPE-5 is ~0.1 %, dominated by
// the tree approximation, not the hardware; 64-bit arithmetic gives
// "practically the same".
func accuracy(in accuracyInputs, thetas []float64) (recordAccuracy, error) {
	acc := recordAccuracy{Model: grape5.ModelPlummer, accuracyInputs: in}
	// Pairwise: one source per call through the engine every force call
	// takes.
	sys, err := g5.NewSystem(g5.DefaultConfig())
	if err != nil {
		return acc, err
	}
	if err := sys.SetScale(-100, 100); err != nil {
		return acc, err
	}
	eng := g5.NewEngine(sys, 1)
	r := rng.New(in.Seed)
	var sum2 float64
	for k := 0; k < in.Pairs; k++ {
		pi := vec.V3{X: r.Uniform(-50, 50), Y: r.Uniform(-50, 50), Z: r.Uniform(-50, 50)}
		pj := vec.V3{X: r.Uniform(-50, 50), Y: r.Uniform(-50, 50), Z: r.Uniform(-50, 50)}
		m := math.Exp(r.Uniform(-3, 3))
		req := core.Request{IPos: []vec.V3{pi}, Acc: make([]vec.V3, 1), Pot: make([]float64, 1),
			J: hostk.JList{X: []float64{pj.X}, Y: []float64{pj.Y}, Z: []float64{pj.Z}, M: []float64{m}, N: 1}}
		eng.Accumulate(&req)
		d := pj.Sub(pi)
		r2 := d.Norm2()
		if r2 < 1e-4 {
			continue
		}
		exact := d.Scale(m / (r2 * math.Sqrt(r2)))
		rel := req.Acc[0].Sub(exact).Norm() / exact.Norm()
		sum2 += rel * rel
		acc.PairsCounted++
	}
	if acc.PairsCounted == 0 {
		return acc, fmt.Errorf("accuracy: no pair of %d is farther apart than 0.01", in.Pairs)
	}
	acc.PairwiseRMS = math.Sqrt(sum2 / float64(acc.PairsCounted))

	model := grape5.Plummer(in.N, 1, 1, 1, in.Seed)
	ref := model.Clone()
	nbody.DirectForces(ref, 1, in.Eps)
	for _, theta := range thetas {
		cfg := grape5.Config{Theta: theta, Ncrit: in.Ncrit, G: 1, Eps: in.Eps}
		host, err := treeError(model, ref, cfg, grape5.EngineHost)
		if err != nil {
			return acc, err
		}
		hw, err := treeError(model, ref, cfg, grape5.EngineGRAPE5)
		if err != nil {
			return acc, err
		}
		acc.Thetas = append(acc.Thetas, accuracyRow{theta, host.RMS, host.P99, hw.RMS, hw.P99, hw.RMS / host.RMS})
	}
	return acc, nil
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

// runAccuracy prints §2 (E2) for its flags:
//
//	perfreport accuracy -n 4000
func runAccuracy(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("perfreport accuracy", flag.ContinueOnError)
	var in accuracyInputs
	in.bind(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// At n ≤ n_g one group holds every particle: the host walk is exact
	// and the hardware's share of the error divides by zero.
	if err := refuse(fs, rule{in.Pairs < 1, "-pairs must be at least 1"},
		rule{in.Ncrit < 1 || in.N <= in.Ncrit, "-n must exceed -ncrit, and -ncrit be at least 1"}); err != nil {
		return err
	}
	acc, err := accuracy(in, accuracyThetas)
	if err != nil {
		return err
	}
	printAccuracy(w, acc)
	return nil
}

func printAccuracy(w io.Writer, acc recordAccuracy) {
	fmt.Fprintf(w, "pairwise pipeline force error: %.3f%% RMS over %d pairs (paper §2: ~0.3%%)\n\n",
		100*acc.PairwiseRMS, acc.PairsCounted)
	fmt.Fprintf(w, "total force error of the modified treecode (N=%d Plummer, ncrit=%d):\n", acc.N, acc.Ncrit)
	fmt.Fprintf(w, "%6s %28s %28s %8s\n", "theta", "float64 host (rms/p99)", "GRAPE-5 (rms/p99)", "hw adds")
	for _, r := range acc.Thetas {
		fmt.Fprintf(w, "%6.2f %15.4f%% /%8.4f%% %15.4f%% /%8.4f%% %7.2fx\n",
			r.Theta, 100*r.HostRMS, 100*r.HostP99, 100*r.GrapeRMS, 100*r.GrapeP99, r.GrapeOverHost)
	}
	fmt.Fprintln(w, "\npaper §2: total error ~0.1% 'dominated by the approximation made in the")
	fmt.Fprintln(w, "tree algorithm and not by the accuracy of the hardware'; the relative")
	fmt.Fprintln(w, "accuracy was 'practically the same' with 64-bit arithmetic.")
}
