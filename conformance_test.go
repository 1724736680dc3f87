package grape5

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ckpt"
	"repro/internal/g5"
	"repro/internal/integrate"
)

// The facade's conformance harness (DESIGN.md §6). Every test here runs
// cells, one facade run each, and compares the records they reduce to:
// the anchor tests against the committed goldens, recorded by code since
// replaced (mode_checksums.json before every dt mode ran on the block
// integrator's KDK core, presoa_trajectories.json before the SoA host
// kernels); TestConformanceMatrix cell against cell and against physical
// bounds. The goldens change only when force arithmetic changes on
// purpose (DESIGN.md §13):
//
//	REGEN_GOLDENS=1 go test -run 'TestModeChecksumsMatchSeed|TestTrajectoryMatchesPreSoASeed' .
const (
	modeGoldenPath   = "testdata/mode_checksums.json"
	presoaGoldenPath = "testdata/presoa_trajectories.json"
)

var regen = os.Getenv("REGEN_GOLDENS") != ""

// cell is one facade run: a Plummer sphere of n particles primed and
// advanced steps steps under cfg.
type cell struct {
	name  string
	n     int
	seed  uint64
	steps int
	cfg   Config
	procs int // GOMAXPROCS for the run; 0 leaves it
	// cut > 0 checkpoints after cut steps through ckpt.Write/ckpt.Read,
	// resumes under resume and finishes the run.
	cut    int
	resume Config
	// vsHost measures the final forces against the host engine; retrace
	// runs the cell backwards under integrate.Reverse.
	vsHost, retrace bool
}

// golden is one case of mode_checksums.json: the by-ID state checksum
// (positions, velocities, accelerations, potentials, then time and
// LastDT, as IEEE-754 bits) and the last step's activity counters.
type golden struct {
	Name         string `json:"name"`
	Checksum     string `json:"checksum"`
	Substeps     int64  `json:"substeps"`
	ActiveI      int64  `json:"active_i"`
	Interactions int64  `json:"interactions"`
}

// stepGolden is one case of presoa_trajectories.json: a hash of the
// tree-ordered positions and velocities after every step.
type stepGolden struct {
	Name       string   `json:"name"`
	StepHashes []string `json:"step_hashes"`
}

type goldenFile[T any] struct {
	Arch  string `json:"arch"` // where it was recorded (readGolden)
	Cases []T    `json:"cases"`
}

// record is what a cell reduces to.
type record struct {
	golden
	Steps    []string // stepGolden hashes, one per step after the cut
	Total    int64    // TotalInteractions
	HW       g5.Counters
	Recovery g5.Recovery
	Faults   g5.FaultStats
	Loads    []int64 // per-shard interactions of the last process
	Crit     float64 // its critical-path hardware seconds

	// Relative energy drift, change of total momentum, RMS force error
	// against the host engine (vsHost), largest retrace error (retrace).
	DE, DP, RMS, Retrace float64
}

// sameTrajectory reports bitwise equal end states and interaction work.
func sameTrajectory(a, b record) bool { return a.golden == b.golden && a.Total == b.Total }

// sameCounters reports equal integer hardware counters, recovery and
// fault tallies. Simulated pipe and bus seconds are float sums in
// arrival order, so they agree to 1e-12 relative.
func sameCounters(a, b record) bool {
	near := func(x, y float64) bool { return math.Abs(x-y) <= 1e-12*math.Abs(y) }
	ha, hb := a.HW, b.HW
	ha.PipeSeconds, ha.BusSeconds, hb.PipeSeconds, hb.BusSeconds = 0, 0, 0, 0
	return ha == hb && near(a.HW.PipeSeconds, b.HW.PipeSeconds) && near(a.HW.BusSeconds, b.HW.BusSeconds) &&
		a.Recovery == b.Recovery && a.Faults == b.Faults
}

// must ends the test on a non-nil err.
func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// hashFloats hashes bit patterns, so -0 and +0 differ.
func hashFloats(each func(put func(...float64))) string {
	h := sha256.New()
	var buf [8]byte
	each(func(vs ...float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	})
	return hex.EncodeToString(h.Sum(nil))
}

// run executes the cell and reduces it to a record. The last simulation
// is closed (twice: Close is idempotent) when the test ends.
func (c cell) run(t *testing.T) (record, *Simulation) {
	t.Helper()
	if c.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
	}
	s := Plummer(c.n, 1, 1, 1, c.seed)
	x0 := slices.Clone(s.Pos) // Plummer numbers particles by index
	sim, err := NewSimulation(s, c.cfg)
	must(t, err)
	t.Cleanup(func() {
		for range 2 {
			if err := sim.Close(); err != nil {
				t.Error(err)
			}
		}
	})
	must(t, sim.Prime())
	e0, v0 := sim.Energy().Total(), sim.Sys.MeanVelocity()
	steps := c.steps
	if c.cut > 0 {
		sim = c.resumeAtCut(t, sim)
		steps -= c.cut
	}
	var r record
	for range steps {
		must(t, sim.Step())
		r.Steps = append(r.Steps, hashFloats(func(put func(...float64)) {
			for i, p := range sim.Sys.Pos {
				v := sim.Sys.Vel[i]
				put(p.X, p.Y, p.Z, v.X, v.Y, v.Z)
			}
		}))
	}

	byID := make([]int, sim.Sys.N())
	for i, id := range sim.Sys.ID {
		byID[id] = i
	}
	last := sim.LastReport
	r.golden = golden{
		Checksum: hashFloats(func(put func(...float64)) {
			s := sim.Sys
			for _, i := range byID {
				p, v, a := s.Pos[i], s.Vel[i], s.Acc[i]
				put(p.X, p.Y, p.Z, v.X, v.Y, v.Z, a.X, a.Y, a.Z, s.Pot[i])
			}
			put(sim.Time(), sim.LastDT())
		}),
		Substeps: last.Substeps, ActiveI: last.ActiveI, Interactions: last.Interactions,
	}
	r.Total, r.HW, r.Recovery, r.Faults = sim.TotalInteractions, sim.HardwareCounters(), sim.Recovery(), sim.FaultStats()
	if cl := sim.Cluster(); cl != nil {
		r.Loads, r.Crit = cl.ShardInteractions(), cl.CriticalHWSeconds()
	}
	r.DE = math.Abs(sim.Energy().Total()/e0 - 1)
	r.DP = sim.Sys.MeanVelocity().Sub(v0).Norm() * sim.Sys.TotalMass()
	if c.vsHost {
		r.RMS = hostRMS(t, sim)
	}
	if c.retrace {
		integrate.Reverse(sim.Sys)
		must(t, sim.Run(c.steps))
		for i, p := range sim.Sys.Pos {
			r.Retrace = max(r.Retrace, p.Sub(x0[sim.Sys.ID[i]]).Norm())
		}
	}
	return r, sim
}

// resumeAtCut runs sim to the cut, round-trips its durable state through
// the checkpoint format, closes it and returns the resumed simulation.
func (c cell) resumeAtCut(t *testing.T, sim *Simulation) *Simulation {
	t.Helper()
	aux := RunAux{Scale: 0.04, T0: 0.1, Age0: 13.2, Seed: 11}
	sim.SetAux(aux)
	must(t, sim.Run(c.cut))
	var buf bytes.Buffer
	must(t, ckpt.Write(&buf, sim.DurableState()))
	ck, err := ckpt.Read(&buf)
	must(t, err)
	if c.cfg.Blocks > 0 && (ck.Block == nil || ck.Block.Tick != 0) {
		t.Fatalf("block checkpoint between Steps = %+v, want a synced scheduler", ck.Block)
	}
	must(t, sim.Close())
	sim, err = ResumeSimulation(ck, c.resume)
	must(t, err)
	// Primed: the resume must not re-run the priming force call.
	if !sim.Primed() || sim.Steps() != c.cut || sim.Aux() != aux {
		t.Fatalf("resumed primed=%v at step %d with aux %+v; want primed at %d with %+v",
			sim.Primed(), sim.Steps(), sim.Aux(), c.cut, aux)
	}
	return sim
}

// hostRMS recomputes sim's final forces with the float64 host engine on
// a clone and returns the RMS relative error, matched by particle ID.
func hostRMS(t *testing.T, sim *Simulation) float64 {
	t.Helper()
	cfg := sim.Config()
	ref, err := NewSimulation(sim.Sys.Clone(), Config{Theta: cfg.Theta, Ncrit: cfg.Ncrit, G: cfg.G, Eps: cfg.Eps, DT: cfg.DT})
	must(t, err)
	must(t, ref.Prime())
	st, err := analysis.CompareForces(sim.Sys, ref.Sys)
	must(t, err)
	return st.RMS
}

// readGolden returns a golden file's cases by name (none under
// REGEN_GOLDENS, which rewrites the file from the runs).
func readGolden[T any](t *testing.T, path string, name func(T) string) map[string]T {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens recorded on amd64; %s may contract FMAs differently", runtime.GOARCH)
	}
	if regen {
		return nil
	}
	var f goldenFile[T]
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &f)
	}
	must(t, err)
	cases := map[string]T{}
	for _, c := range f.Cases {
		cases[name(c)] = c
	}
	return cases
}

// writeGolden rewrites path from cases under REGEN_GOLDENS when all n
// anchors ran and passed.
func writeGolden[T any](t *testing.T, path string, cases []T, n int) {
	if !regen || t.Failed() || len(cases) != n {
		return
	}
	data, err := json.MarshalIndent(goldenFile[T]{Arch: runtime.GOARCH, Cases: cases}, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	must(t, err)
}

// modeFixed is the shared-dt base configuration of the mode cells.
func modeFixed() Config {
	return Config{Theta: 0.6, Ncrit: 64, G: 1, Eps: 0.05, DT: 0.005}
}

// smallCell is the matrix's problem — 256 particles, 6 steps, the
// small/* goldens — on one of its columns, with mode edits applied.
func smallCell(col string, mode func(*Config)) cell {
	cfg := modeFixed()
	mode(&cfg)
	for _, c := range matrixColumns {
		if c.name == col && c.cfg != nil {
			c.cfg(&cfg)
		}
	}
	return cell{name: "small/" + col, n: 256, seed: 9, steps: 6, cfg: cfg}
}

// TestModeChecksumsMatchSeed runs every scheduling mode the facade
// offers — fixed dt on each engine, adaptive dt,
// block timesteps — and requires state, clock, last dt and activity
// counters to equal what the three separate integrators produced.
func TestModeChecksumsMatchSeed(t *testing.T) {
	t.Parallel()
	want := readGolden(t, modeGoldenPath, func(g golden) string { return g.Name })
	big := func(name string, edit func(*Config)) cell {
		cfg := modeFixed()
		edit(&cfg)
		return cell{name: name, n: 2048, seed: 7, steps: 7, cfg: cfg}
	}
	guarded := func(c *Config) { c.Engine, c.Guard = EngineGRAPE5, true }
	adaptive := func(c *Config) { c.Adaptive, c.Eta = true, 0.01 }
	none := func(*Config) {}
	anchors := []cell{
		big("fixed/host", none),
		big("fixed/guarded", guarded),
		big("fixed/cluster2", func(c *Config) { guarded(c); c.Shards = 2 }),
		big("adaptive/host", adaptive),
		big("adaptive/guarded", func(c *Config) { adaptive(c); guarded(c); c.DTMin = 0.003205 }),
		big("blocks4/host", func(c *Config) { c.Eps, c.DT, c.Blocks, c.DTMin, c.Eta = 0.002, 0, 4, 0.0002, 0.01 }),
		smallCell("host", none), smallCell("guarded", none), smallCell("cluster2", none),
	}
	var got []golden
	for _, c := range anchors {
		t.Run(c.name, func(t *testing.T) {
			r, _ := c.run(t)
			r.Name = c.name
			got = append(got, r.golden)
			if !regen && r.golden != want[c.name] {
				t.Fatalf("mode diverged from the seed integrators:\n got %+v\nwant %+v", r.golden, want[c.name])
			}
		})
	}
	writeGolden(t, modeGoldenPath, got, len(anchors))
}

// requireFixedGolden runs a block ladder that must collapse to one
// occupied rung spanning DT and requires the small/* fixed-dt golden.
func requireFixedGolden(t *testing.T, col string, procs int, ladder func(*Config)) {
	want := readGolden(t, modeGoldenPath, func(g golden) string { return g.Name })
	c := smallCell(col, ladder)
	c.procs = procs
	r, _ := c.run(t)
	r.Name = c.name
	if !regen && r.golden != want[c.name] {
		t.Fatalf("block run diverged from the fixed-dt leapfrog seed:\n got %+v\nwant %+v", r.golden, want[c.name])
	}
}

// TestBlockSingleRungMatchesLeapfrog: with Blocks = 1 every particle
// runs on rung 0 at dt = DTMin and each substep opens and closes the
// full set, so the run is the global leapfrog at DT = DTMin — on every
// engine, at serial and parallel GOMAXPROCS.
func TestBlockSingleRungMatchesLeapfrog(t *testing.T) {
	for _, col := range []string{"host", "guarded", "cluster2"} {
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/procs=%d", col, procs), func(t *testing.T) {
				requireFixedGolden(t, col, procs, func(c *Config) { c.Blocks, c.DTMin, c.DT, c.Eta = 1, c.DT, 0, 0.2 })
			})
		}
	}
}

// TestBlockTopRungMatchesLeapfrog: four rung levels with an Eta so
// loose every particle takes the top rung, so each Step is one
// full-span substep; DTMin = DT/8 is exact in binary, so the span is DT
// bit for bit.
func TestBlockTopRungMatchesLeapfrog(t *testing.T) {
	for _, col := range []string{"host", "guarded", "cluster2"} {
		t.Run(col, func(t *testing.T) {
			requireFixedGolden(t, col, 0, func(c *Config) { c.Blocks, c.DTMin, c.DT, c.Eta = 4, c.DT/8, 0, 100 })
		})
	}
}

// TestTrajectoryMatchesPreSoASeed replays the pre-SoA scenarios — the
// host walk and P2P kernel, a guarded run that loses every board on the
// first call, a two-board run that loses a board mid-run — and requires
// every per-step hash to match.
func TestTrajectoryMatchesPreSoASeed(t *testing.T) {
	want := readGolden(t, presoaGoldenPath, func(g stepGolden) string { return g.Name })
	lossCfg := modeFixed()
	lossCfg.Engine, lossCfg.Guard = EngineGRAPE5, true
	lossCfg.Fault = &g5.FaultModel{Seed: 3, FailBoard: 2, FailAfterRuns: 40, FailSlot: 7}
	dead := smallCell("dead", func(*Config) {}).cfg
	anchors := []cell{
		{name: "host-engine", n: 600, seed: 11, steps: 8, cfg: Config{
			Theta: 0.7, Ncrit: 96, G: 1, Eps: 0.02, DT: 0.002, Workers: 4}},
		{name: "guarded-all-boards-lost", n: 400, seed: 6, steps: 8, cfg: dead},
		{name: "guarded-board-loss", n: 800, seed: 5, steps: 12, cfg: lossCfg},
	}
	var got []stepGolden
	for _, c := range anchors {
		t.Run(c.name, func(t *testing.T) {
			r, _ := c.run(t)
			got = append(got, stepGolden{c.name, r.Steps})
			if w := want[c.name].StepHashes; !regen && !slices.Equal(r.Steps, w) {
				t.Fatalf("per-step hashes left the pre-SoA golden (force arithmetic or j-list order changed):\n got %.12q\nwant %.12q", r.Steps, w)
			}
		})
	}
	writeGolden(t, presoaGoldenPath, got, len(anchors))
}

// column is one engine or fault configuration of the matrix.
type column struct {
	name string
	// class is the trajectory class: 'H' cells are bitwise the host
	// engine's run, 'G' cells bitwise the GRAPE engine's, and 'F' cells
	// (undetected j-memory bit flips) are held to the bounds only.
	class byte
	// group names the cells whose hardware counters, recovery and fault
	// tallies agree whatever GOMAXPROCS and resume; "" for none.
	group string
	cfg   func(*Config)
	// shows is what an uninterrupted run of the column must show.
	shows func(r record, sim *Simulation) bool
}

// onGRAPE configures the emulated GRAPE-5 behind the guard on shards
// shards (0: one shard with the guard off), injecting f into every board.
func onGRAPE(shards int, f *g5.FaultModel) func(*Config) {
	return func(c *Config) {
		c.Engine, c.Guard = EngineGRAPE5, shards > 0
		if shards > 1 {
			c.Shards = shards
		}
		c.Fault = f
	}
}

// clustered is the signature of a fault-free K-shard run: every shard
// served work, and the critical path is shorter than the aggregate.
func clustered(k int) func(record, *Simulation) bool {
	return func(r record, _ *Simulation) bool {
		return len(r.Loads) == k && !slices.Contains(r.Loads, 0) && r.Recovery.Checks > 0 &&
			r.Crit > 0 && (k == 1 || r.Crit < r.HW.HWSeconds())
	}
}

var matrixColumns = []column{
	{"host", 'H', "host", nil, func(r record, sim *Simulation) bool { return r.HW == g5.Counters{} && sim.Cluster() == nil }},
	{"unguarded", 'G', "unguarded", onGRAPE(0, nil), func(r record, sim *Simulation) bool {
		return sim.Cluster().Shards() == 1 && r.Recovery.Checks == 0 && r.HW.Runs > 0
	}},
	{"guarded", 'G', "guarded", onGRAPE(1, nil), clustered(1)},
	{"cluster2", 'G', "guarded", onGRAPE(2, nil), clustered(2)},
	{"cluster4", 'G', "guarded", onGRAPE(4, nil), clustered(4)},
	{"loss", 'G', "", onGRAPE(1, &g5.FaultModel{Seed: 3, FailBoard: 2, FailAfterRuns: 10, FailSlot: 7}), func(r record, sim *Simulation) bool {
		return r.Recovery.ExcludedBoards == 1 && !r.Recovery.HostOnly && sim.Cluster().ActiveBoards() == 1 && r.Faults.StuckPipeCalls > 0
	}},
	{"transient", 'G', "", onGRAPE(2, &g5.FaultModel{Seed: 11, TransientRate: 0.05, BusErrorRate: 0.05,
		FailBoard: 2, FailAfterRuns: 30, FailSlot: 5}), func(r record, _ *Simulation) bool {
		return r.Recovery.Retries > 0 && r.Recovery.ExcludedBoards > 0 && r.Faults.Transients > 0 && r.Faults.BusErrors > 0
	}},
	{"stuck", 'G', "", onGRAPE(1, &g5.FaultModel{Seed: 5, StuckPipeRate: 0.02}),
		func(r record, _ *Simulation) bool { return r.Recovery.CorruptResults > 0 }},
	// A pipe of a board in service sticks on every call: each board in
	// turn fails the check, and the third batch lost to the host in a row
	// abandons the hardware.
	{"dead", 'H', "", onGRAPE(1, &g5.FaultModel{Seed: 9, StuckPipeRate: 1}), func(r record, sim *Simulation) bool {
		return r.Recovery.HostOnly && r.Recovery.FallbackBatches > 0 && sim.Cluster().ActiveBoards() == 0
	}},
	{"bitflip", 'F', "", onGRAPE(1, &g5.FaultModel{Seed: 7, JMemBitFlipRate: 0.05}),
		func(r record, _ *Simulation) bool { return r.Faults.JMemBitFlips > 0 }},
}

// bounds are each class's physical limits: the largest values measured
// when the harness was written (8 repeats of the matrix, 60 of its
// GOMAXPROCS 4 bit-flip cells) with about 3× headroom. F's tail is an
// undetected flip in the last force call: a displaced source drags its
// neighbours' forces by tens of percent.
var bounds = map[byte]struct{ de, dp, rms float64 }{
	'H': {3e-4, 5e-6, 3e-3}, // measured 6.8e-5, 1.7e-6, 3.7e-17
	'G': {3e-4, 5e-6, 3e-3}, // measured 9.2e-5, 1.7e-6, 9.3e-4
	'F': {3e-3, 3e-5, 0.25}, // measured 8.6e-4, 8.7e-6, 0.081
}

// maxRetrace bounds the retrace of uninterrupted fixed-dt H and G cells
// (measured 2.2e-16 host, 1.1e-16 GRAPE: one rounding of an O(1)
// position).
const maxRetrace = 1e-15

// TestConformanceMatrix runs the 256-particle, 6-step problem of the
// small/* goldens in each dt mode × column × GOMAXPROCS {1, 4} ×
// {whole, resumed}. A resumed cell is cut, checkpointed through the
// file format and resumed: host cells under the zero Config (every
// fingerprinted field inherits), the rest under their own. The host and
// guarded columns cut at every step in turn, the others at one step
// drawn from the cell's name. Each run must
//
//   - land bitwise on its class (mode, H or G): same state, clock, last
//     dt and interaction work as the first cell of the class;
//   - agree on counters with its group (mode, group);
//   - show its column's signature when uninterrupted;
//   - reproduce every record, shard loads included, when rerun at
//     GOMAXPROCS 1 under injected faults;
//   - stay inside its class's bounds on |ΔE/E|, |Δp| and the RMS force
//     error against the host engine and, when an uninterrupted fixed-dt
//     cell in H or G, retrace under integrate.Reverse to ≤ maxRetrace.
func TestConformanceMatrix(t *testing.T) {
	modes := []struct {
		name string
		cfg  func(*Config)
	}{
		{"fixed", func(*Config) {}},
		{"adaptive", func(c *Config) { c.Adaptive, c.Eta = true, 0.01 }},
		{"blocks", func(c *Config) { c.Blocks, c.DTMin, c.DT, c.Eta = 4, c.DT/8, 0, 0.01 }},
	}
	classes, groups := map[string]record{}, map[string]record{}
	for _, procs := range []int{1, 4} {
		if procs > 1 {
			// The GOMAXPROCS 1 cells ran in the package's serial phase, where
			// they hold back no other test; the rest overlap its parallel tests.
			t.Parallel()
		}
		for _, m := range modes {
			for _, col := range matrixColumns {
				for _, resumed := range []bool{false, true} {
					c := smallCell(col.name, m.cfg)
					c.name = fmt.Sprintf("%s/%s/procs=%d/whole", m.name, col.name, procs)
					// Cells of one class are bitwise equal, so their force error
					// and retrace are measured once, on the serial uninterrupted run.
					first := procs == 1 && !resumed
					c.procs, c.vsHost = procs, c.cfg.Engine == EngineGRAPE5 && (first || col.class == 'F')
					c.retrace = m.name == "fixed" && col.class != 'F' && first
					cuts := []int{0}
					if resumed {
						c.name = c.name[:len(c.name)-len("whole")] + "resumed"
						if col.name == "host" || col.name == "guarded" {
							cuts = cuts[:0]
							for k := 1; k < c.steps; k++ {
								cuts = append(cuts, k)
							}
						} else {
							h := fnv.New32a()
							h.Write([]byte(c.name))
							cuts[0] = 1 + int(h.Sum32()%uint32(c.steps-1))
						}
						if c.resume = c.cfg; col.name == "host" {
							c.resume = Config{}
						}
					}
					t.Run(c.name, func(t *testing.T) {
						for _, c.cut = range cuts {
							got, sim := c.run(t)
							t.Logf("cut %d: |ΔE/E| %.2g |Δp| %.2g rms %.2g retrace %.2g; %s; %+v", c.cut, got.DE, got.DP, got.RMS, got.Retrace, got.Recovery, got.Faults)
							if col.class != 'F' {
								key := m.name + "/" + string(col.class)
								if want, ok := classes[key]; !ok {
									classes[key] = got
								} else if !sameTrajectory(got, want) {
									t.Errorf("left class %s:\n got %+v total %d\nwant %+v total %d", key, got.golden, got.Total, want.golden, want.Total)
								}
							}
							if col.group != "" {
								key := m.name + "/" + col.group
								if want, ok := groups[key]; !ok {
									groups[key] = got
								} else if !sameCounters(got, want) {
									t.Errorf("left counter group %s:\n got %+v %s %+v\nwant %+v %s %+v", key, got.HW, got.Recovery, got.Faults, want.HW, want.Recovery, want.Faults)
								}
							}
							if !resumed && !col.shows(got, sim) {
								t.Errorf("%s run lacks its signature: %+v %s %+v loads %v", col.name, got.HW, got.Recovery, got.Faults, got.Loads)
							}
							if procs == 1 && !resumed && c.cfg.Fault != nil {
								if again, _ := c.run(t); !sameTrajectory(again, got) || !sameCounters(again, got) || !slices.Equal(again.Loads, got.Loads) {
									t.Errorf("faulted run not reproducible at GOMAXPROCS 1:\n got %+v %s %v\nthen %+v %s %v", got.golden, got.Recovery, got.Loads, again.golden, again.Recovery, again.Loads)
								}
							}
							if b := bounds[col.class]; got.DE > b.de || got.DP > b.dp || got.RMS > b.rms || got.Retrace > maxRetrace {
								t.Errorf("outside the physical bounds: |ΔE/E| %.3g, |Δp| %.3g, force RMS %.3g, retrace %.3g", got.DE, got.DP, got.RMS, got.Retrace)
							}
						}
					})
				}
			}
		}
	}
}
