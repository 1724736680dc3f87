package main

import (
	"fmt"

	grape5 "repro"
)

// Seeds recorded for the benchmark. BENCHMARK.json's key set is fixed by
// its contract and has no room for them, so they live here and in the
// README: develop against defaultSeed, confirm a claim on heldOutSeed.
const (
	defaultSeed = 19990713
	heldOutSeed = 20000229
)

// walkWorkers is the traversal parallelism of every simulation workload.
// The reference sandbox has two cores; a run never asks for more threads
// than that.
const walkWorkers = 2

// workload is one named set of inputs. The names are fixed: later issues
// cite them.
type workload struct {
	name string
	why  string
	// serve marks the job-server workload; the rest are simulations.
	serve bool

	// build generates the initial conditions and configuration from the
	// seed alone. smoke selects the sizes of the smoke test.
	build func(seed uint64, smoke bool) (*grape5.System, grape5.Config, error)
	// ckptEvery is the checkpoint cadence in steps.
	ckptEvery int
	// countSteps is the fixed prefix of the run over which every
	// simulated count is taken: a run measures for a wall-clock budget, so
	// its total step count varies, but every run reaches this step and
	// the counts up to it depend on (workload, seed) only.
	countSteps int
	// forceErrMax is the E2 envelope on the relative RMS force error at
	// theta = 0.75; energyMax bounds |dE/E| over the run (0 = unchecked:
	// the expanding sphere's energy is not the invariant being tested).
	forceErrMax float64
	energyMax   float64
}

const theta = 0.75

func plummer(n, smokeN int, cfg grape5.Config) func(uint64, bool) (*grape5.System, grape5.Config, error) {
	return func(seed uint64, smoke bool) (*grape5.System, grape5.Config, error) {
		c, size := cfg, n
		if smoke {
			size = smokeN
		}
		c.Theta, c.G, c.Workers = theta, 1, walkWorkers
		return grape5.Plummer(size, 1, 1, 1, seed), c, nil
	}
}

func cosmoSphere(seed uint64, smoke bool) (*grape5.System, grape5.Config, error) {
	grid := 32
	if smoke {
		grid = 8
	}
	cs, err := grape5.NewCosmoSphere(grape5.CosmoSphereParams{GridN: grid, Seed: seed}, 999)
	if err != nil {
		return nil, grape5.Config{}, err
	}
	return cs.Sys, grape5.Config{
		Theta: theta, Ncrit: 1000, G: grape5.G,
		// The softening is the physical grid spacing at the start, as in
		// cmd/bench; the timestep is the 999-step schedule to z = 0.
		Eps: cs.GridSpacing * cs.AInit, DT: cs.Schedule.DT(),
		Engine: grape5.EngineGRAPE5, Shards: 2, Workers: walkWorkers,
	}, nil
}

var workloads = []workload{
	{
		name: "grape_plummer8k",
		why:  "The paper's configuration (guarded GRAPE-5, n_crit=500): the emulator does >95% of the work, so a g5 kernel or staging gain shows here and nowhere on the host workloads.",
		build: plummer(8192, 512, grape5.Config{
			Ncrit: 500, Eps: 0.02, DT: 0.005, Engine: grape5.EngineGRAPE5, Guard: true,
		}),
		ckptEvery: 10, countSteps: 4, forceErrMax: 0.006, energyMax: 1e-3,
	},
	{
		name: "host_plummer64k",
		why:  "Host engine at N=65536, n_crit=16: hostk, core walk, octree and morton do everything, g5 nothing, and 6.3 MB checkpoints register. An emulator change must predict no change here.",
		build: plummer(65536, 2048, grape5.Config{
			Ncrit: 16, Eps: 0.02, DT: 0.005, Engine: grape5.EngineHost,
		}),
		ckptEvery: 12, countSteps: 4, forceErrMax: 0.006, energyMax: 1e-3,
	},
	{
		name: "block_plummer16k",
		why:  "Block timesteps (6 rungs): masked walks, gather/scatter, Refresh versus rebuild, rung assignment. A full-set gain that costs the active-set path shows here.",
		build: plummer(16384, 1024, grape5.Config{
			Ncrit: 64, Eps: 0.005, Engine: grape5.EngineHost,
			Blocks: 6, DTMin: 1.5625e-4, Eta: 0.01,
		}),
		ckptEvery: 10, countSteps: 2, forceErrMax: 0.006, energyMax: 1e-3,
	},
	{
		name:      "cluster_cosmo17k",
		why:       "The paper's problem class (SCDM sphere, N=17256) on two guarded shards behind dispatch, merge and Flush, with a growing scale window. Cross-shard contention shows here; cosmo/fft cost is in setup_s.",
		build:     cosmoSphere,
		ckptEvery: 10, countSteps: 4, forceErrMax: 0.02,
	},
	{
		name:  "serve_smalljobs",
		why:   "Closed loop of 2 tenants against the job server with small jobs (3/4 host N=256x50, 1/4 grape5 N=512x4): admission, persistence, board leasing and SSE fan-out are the measurable share.",
		serve: true,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
