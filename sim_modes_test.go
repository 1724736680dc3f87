package grape5

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
)

// modeGoldenPath holds one state checksum per scheduling mode × engine,
// recorded at commit bdbe0fb — the last revision where fixed-dt runs
// went through integrate.Leapfrog and adaptive runs through
// integrate.AdaptiveLeapfrog. Every mode now runs on the block
// integrator's KDK core, so these checksums pin the equivalence against
// the deleted integrators rather than against the core itself.
//
// Regenerating is only legitimate when the force arithmetic changes on
// purpose (then the pre-SoA goldens move too):
//
//	REGEN_MODES=1 go test -run TestModeChecksumsMatchSeed .
const modeGoldenPath = "testdata/mode_checksums.json"

// modeCase is one pinned run: a Plummer sphere of n particles advanced
// steps steps under cfg.
type modeCase struct {
	name  string
	n     int
	seed  uint64
	steps int
	cfg   Config
}

// modeRecord is what a run is reduced to: the by-ID state checksum
// (positions, velocities, accelerations, potentials, then simulation
// time and LastDT, all as IEEE-754 bit patterns) and the last step's
// activity counters.
type modeRecord struct {
	Name         string `json:"name"`
	Checksum     string `json:"checksum"`
	Substeps     int64  `json:"substeps"`
	ActiveI      int64  `json:"active_i"`
	Interactions int64  `json:"interactions"`
}

type modeGolden struct {
	// Arch is where the checksums were recorded; FMA contraction on
	// other architectures legitimately changes low-order bits.
	Arch  string       `json:"arch"`
	Cases []modeRecord `json:"cases"`
}

// modeFixed is the shared-dt base configuration of every case.
func modeFixed() Config {
	return Config{Theta: 0.6, Ncrit: 64, G: 1, Eps: 0.05, DT: 0.005}
}

// smallCase is a run on one of the blockEngines pipelines at N=256. The
// golden file pins it under fixed dt; the single-rung block tests in
// sim_block_test.go substitute their block configs and must land on the
// same record (they run under -race at two scheduler widths, hence the
// small size).
func smallCase(engine string, cfg Config) modeCase {
	return modeCase{"small/" + engine, 256, 9, 6, cfg}
}

// modeCases is the eight-cell mode × engine matrix at N=2048 plus the
// fixed-dt small cases.
func modeCases() []modeCase {
	with := func(base Config, f func(*Config)) Config { f(&base); return base }
	guarded := func(c *Config) { c.Engine = EngineGRAPE5; c.Guard = true }
	adaptive := with(modeFixed(), func(c *Config) { c.Adaptive = true; c.Eta = 0.01 })
	big := func(name string, cfg Config) modeCase { return modeCase{name, 2048, 7, 7, cfg} }
	cases := []modeCase{
		big("fixed/host", modeFixed()),
		big("fixed/guarded", with(modeFixed(), guarded)),
		big("fixed/cluster2", with(modeFixed(), func(c *Config) { guarded(c); c.Shards = 2 })),
		big("fixed/rebuild3", with(modeFixed(), func(c *Config) { c.RebuildEvery = 3 })),
		big("fixed/pm", with(modeFixed(), func(c *Config) { c.Engine = EnginePM; c.PMGrid = 32 })),
		big("adaptive/host", adaptive),
		big("adaptive/guarded", with(adaptive, func(c *Config) { guarded(c); c.DTMin = 0.003205 })),
		big("blocks4/host", Config{Theta: 0.6, Ncrit: 64, G: 1, Eps: 0.002,
			Blocks: 4, DTMin: 0.0002, Eta: 0.01}),
	}
	for _, eng := range blockEngines {
		cases = append(cases, smallCase(eng.name, with(modeFixed(), eng.cfg)))
	}
	return cases
}

// run primes and advances the case and reduces the result to a
// modeRecord.
func (m modeCase) run(t *testing.T) modeRecord {
	t.Helper()
	sim, err := NewSimulation(Plummer(m.n, 1, 1, 1, m.seed), m.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Prime(); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(m.steps); err != nil {
		t.Fatal(err)
	}
	s := sim.Sys
	byID := make([]int, s.N())
	for i, id := range s.ID {
		byID[id] = i
	}
	h := sha256.New()
	var buf [8]byte
	put := func(vs ...float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	for _, i := range byID {
		p, v, a := s.Pos[i], s.Vel[i], s.Acc[i]
		put(p.X, p.Y, p.Z, v.X, v.Y, v.Z, a.X, a.Y, a.Z, s.Pot[i])
	}
	put(sim.Time(), sim.LastDT())
	r := sim.LastReport
	return modeRecord{
		Name:         m.name,
		Checksum:     hex.EncodeToString(h.Sum(nil)),
		Substeps:     r.Substeps,
		ActiveI:      r.ActiveI,
		Interactions: r.Interactions,
	}
}

// loadModeGolden reads the committed records keyed by case name.
func loadModeGolden(t *testing.T) map[string]modeRecord {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden checksums recorded on amd64; %s may contract FMAs differently", runtime.GOARCH)
	}
	data, err := os.ReadFile(modeGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden modeGolden
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	want := map[string]modeRecord{}
	for _, c := range golden.Cases {
		want[c.Name] = c
	}
	return want
}

// TestModeChecksumsMatchSeed runs every scheduling mode the facade
// offers — fixed dt on each engine and tree-reuse setting, adaptive dt,
// block timesteps — and requires state, clock, last dt and activity
// counters to equal what the three separate integrators produced.
func TestModeChecksumsMatchSeed(t *testing.T) {
	if os.Getenv("REGEN_MODES") != "" {
		golden := modeGolden{Arch: runtime.GOARCH}
		for _, m := range modeCases() {
			golden.Cases = append(golden.Cases, m.run(t))
		}
		data, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(modeGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := loadModeGolden(t)
	for _, m := range modeCases() {
		t.Run(m.name, func(t *testing.T) {
			w, ok := want[m.name]
			if !ok {
				t.Fatalf("mode %q missing from %s", m.name, modeGoldenPath)
			}
			if got := m.run(t); got != w {
				t.Fatalf("mode diverged from the seed integrators:\n got %+v\nwant %+v", got, w)
			}
		})
	}
}

// TestAdaptiveLeapfrogEnergy runs the adaptive dt policy to t = 0.5 and
// checks what the policy promises: every pick lies in [DTMin, DT], the
// clock is the sum of the picks, and energy drifts no more than a
// shared-step leapfrog with a varying step should.
func TestAdaptiveLeapfrogEnergy(t *testing.T) {
	cfg := Config{Theta: 0.3, Ncrit: 32, G: 1, Eps: 0.05,
		Adaptive: true, Eta: 0.05, DT: 0.01, DTMin: 0.001}
	sim, err := NewSimulation(Plummer(200, 1, 1, 1, 9), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Prime(); err != nil {
		t.Fatal(err)
	}
	e0 := sim.Energy().Total()
	steps, sum := 0, 0.0
	for sim.Time() < 0.5 {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
		dt := sim.LastDT()
		if dt < cfg.DTMin || dt > cfg.DT {
			t.Fatalf("step %d: dt = %v outside [%v, %v]", steps, dt, cfg.DTMin, cfg.DT)
		}
		sum += dt
		steps++
	}
	if steps < 50 {
		t.Errorf("suspiciously few steps: %d", steps)
	}
	if sim.Time() != sum {
		t.Errorf("Time = %v, want Σ dt = %v", sim.Time(), sum)
	}
	e1 := sim.Energy().Total()
	if rel := math.Abs(e1-e0) / math.Abs(e0); rel > 5e-3 {
		t.Errorf("adaptive energy drift = %v", rel)
	}
}

// TestAdaptiveStepReturnsDT takes one adaptive Step on an unprimed
// two-body system: the step must prime first (the criterion reads
// accelerations), pick a dt under the ceiling and advance the clock by it.
func TestAdaptiveStepReturnsDT(t *testing.T) {
	sim, err := NewSimulation(TwoBody(1, 1, 1, 1), Config{
		G: 1, Eps: 0.1, Adaptive: true, Eta: 0.1, DT: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(); err != nil {
		t.Fatal(err)
	}
	if dt := sim.LastDT(); dt <= 0 || dt > 0.01 || sim.Time() != dt {
		t.Errorf("dt = %v, Time = %v", dt, sim.Time())
	}
	if !sim.Primed() {
		t.Error("adaptive Step left the simulation unprimed")
	}
}

// TestDenseIDsRequiredInEveryMode: the integrator keys its state by
// particle ID, so IDs that are not a permutation of [0, N) must be
// rejected at Prime whatever the timestep mode.
func TestDenseIDsRequiredInEveryMode(t *testing.T) {
	modes := map[string]Config{
		"fixed":    {G: 1, Eps: 0.05, DT: 0.005},
		"adaptive": {G: 1, Eps: 0.05, DT: 0.005, Adaptive: true},
		"blocks":   {G: 1, Eps: 0.05, Blocks: 3, DTMin: 0.00125},
	}
	breakIDs := map[string]func(s *System){
		"sparse":    func(s *System) { s.ID[3] = int64(s.N()) + 5 },
		"negative":  func(s *System) { s.ID[3] = -1 },
		"duplicate": func(s *System) { s.ID[3] = s.ID[4] },
	}
	for mode, cfg := range modes {
		for kind, breakID := range breakIDs {
			t.Run(mode+"/"+kind, func(t *testing.T) {
				s := Plummer(64, 1, 1, 1, 2)
				breakID(s)
				sim, err := NewSimulation(s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := sim.Prime(); err == nil {
					t.Error("Prime accepted non-dense particle IDs")
				}
				if err := sim.Step(); err == nil {
					t.Error("Step accepted non-dense particle IDs")
				}
			})
		}
	}
}
