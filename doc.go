// Package grape5 (module "repro") is a from-scratch Go reproduction of
// "$7.0/Mflops Astrophysical N-Body Simulation with Treecode on
// GRAPE-5" (Kawai, Fukushige & Makino, SC 1999 Gordon Bell
// price/performance entry).
//
// It provides:
//
//   - the Barnes-Hut treecode with Barnes' (1990) modified algorithm —
//     grouped traversal with shared interaction lists — and the GRAPE
//     offload schedule (internal/core, internal/octree);
//   - a functional and timing emulation of the GRAPE-5 special-purpose
//     computer: 2 boards × 8 chips × 2 pipelines at 90 MHz, fixed-point
//     positions, ~0.3 % low-precision force arithmetic, particle-memory
//     streaming and host-interface costs (internal/g5);
//   - the cosmological pipeline of the headline run: standard-CDM power
//     spectrum, Zel'dovich initial conditions for a 50 Mpc sphere, and
//     leapfrog integration from z=24 to z=0 (internal/cosmo,
//     internal/integrate);
//   - the performance and price accounting behind the $7.0/Mflops
//     figure (internal/perf);
//   - analysis tools: force-error statistics, energy, profiles,
//     correlation functions and the Figure-4 projection renderer
//     (internal/analysis).
//
// This package is the public facade: Simulation couples a particle
// System to a force engine (float64 host or emulated GRAPE-5) and a
// leapfrog integrator, and surfaces per-step treecode statistics and
// hardware counters.
//
// The runnable reproductions of the paper's evaluation live in cmd/
// (grape5sim, perfreport and its ngsweep/accuracy/record subcommands,
// snapstat and its ics/pgm subcommands), in the Examples of
// example_test.go and in the benchmark suite in bench_test.go; see
// DESIGN.md for the experiment index and EXPERIMENTS.md for
// measured-vs-paper results.
package grape5
