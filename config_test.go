package grape5

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/g5"
)

// TestConfigValidate pins the rules every front-end inherits through
// NewSimulation: each bad row must be refused by Validate and by the
// constructor, naming the offending parameter; each good row must pass
// both.
func TestConfigValidate(t *testing.T) {
	base := Config{G: 1, Eps: 0.02, DT: 0.005}
	with := func(edit func(*Config)) Config {
		c := base
		edit(&c)
		return c
	}
	bad := []struct {
		name string
		cfg  Config
		want string
	}{
		{"theta NaN", with(func(c *Config) { c.Theta = math.NaN() }), "theta"},
		{"theta negative", with(func(c *Config) { c.Theta = -1 }), "theta"},
		{"theta +Inf", with(func(c *Config) { c.Theta = math.Inf(1) }), "theta"},
		{"eps NaN", with(func(c *Config) { c.Eps = math.NaN() }), "eps"},
		{"eps negative", with(func(c *Config) { c.Eps = -0.02 }), "eps"},
		{"G -Inf", with(func(c *Config) { c.G = math.Inf(-1) }), "G"},
		{"dt negative", with(func(c *Config) { c.DT = -0.005 }), "dt"},
		{"dt unset", with(func(c *Config) { c.DT = 0 }), "timestep"},
		{"dtmin NaN", with(func(c *Config) { c.Adaptive, c.DTMin = true, math.NaN() }), "dtmin"},
		{"eta negative", with(func(c *Config) { c.Adaptive, c.Eta = true, -0.2 }), "eta"},
		{"ncrit negative", with(func(c *Config) { c.Ncrit = -1 }), "ncrit"},
		{"leafcap negative", with(func(c *Config) { c.LeafCap = -8 }), "leafcap"},
		{"workers negative", with(func(c *Config) { c.Workers = -2 }), "workers"},
		{"blocks negative", with(func(c *Config) { c.Blocks = -1 }), "blocks"},
		{"unknown engine", with(func(c *Config) { c.Engine = 7 }), "engine"},
		{"shards on host", with(func(c *Config) { c.Shards = 2 }), "grape5 engine"},
		{"guard on host", with(func(c *Config) { c.Guard = true }), "grape5 engine"},
		{"guard on pm", with(func(c *Config) { c.Engine, c.Guard = EnginePM, true }), "grape5 engine"},
		{"faults on host", with(func(c *Config) { c.GRAPE.Fault = &g5.FaultModel{Seed: 1} }), "grape5 engine"},
		{"blocks without dtmin", with(func(c *Config) { c.Blocks, c.DT = 4, 0 }), "DTMin"},
		{"blocks with adaptive", with(func(c *Config) { c.Blocks, c.DTMin, c.DT, c.Adaptive = 4, 0.001, 0, true }), "exclusive"},
	}
	for _, tc := range bad {
		err := tc.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error naming %q", tc.name, err, tc.want)
		}
		if sim, err := NewSimulation(Plummer(32, 1, 1, 1, 1), tc.cfg); err == nil {
			t.Errorf("%s: NewSimulation accepted %+v", tc.name, tc.cfg)
			sim.Close()
		}
	}
	good := []Config{
		base, // theta, ncrit, leafcap unset: defaults
		with(func(c *Config) { c.Engine, c.Guard = EngineGRAPE5, true }),
		with(func(c *Config) { c.Engine, c.Shards = EngineGRAPE5, 2 }),
		with(func(c *Config) { c.Shards = 1 }), // 0 and 1 both mean "no cluster"
		with(func(c *Config) { c.Engine, c.PMGrid = EnginePM, 16 }),
		with(func(c *Config) { c.Blocks, c.DTMin, c.DT = 4, 0.000625, 0 }),
		with(func(c *Config) { c.Blocks, c.DTMin = 4, 0.000625 }), // DT == span exactly
		with(func(c *Config) { c.Adaptive, c.Eta = true, 0.2 }),
	}
	for i, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("good config %d refused: %v", i, err)
			continue
		}
		sim, err := NewSimulation(Plummer(32, 1, 1, 1, 1), cfg)
		if err != nil {
			t.Errorf("good config %d: NewSimulation: %v", i, err)
			continue
		}
		// Nothing is materialised into what a checkpoint records.
		if got := sim.Config(); got.Theta != cfg.Theta || got.Ncrit != cfg.Ncrit || got.LeafCap != cfg.LeafCap {
			t.Errorf("good config %d: Config() materialised defaults: %+v", i, got)
		}
		if err := sim.Close(); err != nil {
			t.Error(err)
		}
	}
}

// TestEngineNames: String and ParseEngine are inverses over the engine
// table, and strangers are refused or printed as such.
func TestEngineNames(t *testing.T) {
	for _, k := range []EngineKind{EngineHost, EngineGRAPE5, EnginePM} {
		got, err := ParseEngine(k.String())
		if err != nil || got != k {
			t.Errorf("ParseEngine(%q) = %v, %v; want %d", k.String(), got, err, int(k))
		}
	}
	if _, err := ParseEngine("gpu"); err == nil {
		t.Error(`ParseEngine("gpu") accepted`)
	}
	if s := EngineKind(9).String(); s != "engine-9" {
		t.Errorf("EngineKind(9).String() = %q", s)
	}
}

// TestModelTable pins the model-unit table the CLI, the job server and
// the bench sweeps all read: names, units, default eps/dt, and that New
// is the documented constructor call.
func TestModelTable(t *testing.T) {
	for _, tc := range []struct {
		name       string
		g, eps, dt float64
		ref        *System
	}{
		{ModelPlummer, 1, 0.02, 0.005, Plummer(64, 1, 1, 1, 3)},
		{ModelUniform, 1, 0.02, 0.002, UniformSphere(64, 1, 1, 3)},
	} {
		m, err := LookupModel(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if m.G != tc.g || m.Eps != tc.eps || m.DT != tc.dt {
			t.Errorf("%s: G, eps, dt = %v, %v, %v; want %v, %v, %v", tc.name, m.G, m.Eps, m.DT, tc.g, tc.eps, tc.dt)
		}
		sys := m.New(64, 3)
		for i := range sys.Pos {
			if sys.Pos[i] != tc.ref.Pos[i] || sys.Vel[i] != tc.ref.Vel[i] {
				t.Fatalf("%s: New differs from the direct constructor at particle %d", tc.name, i)
			}
		}
	}
	if _, err := LookupModel("cosmo"); err == nil {
		t.Error(`LookupModel("cosmo") accepted: the cosmological sphere is not a model-unit problem`)
	}
}

// TestResumeFailureClosesCluster: a resume that fails after the
// simulation was built (here: a block scheduler state the integrator
// refuses) must not leak goroutines. The cluster runs batches in the
// caller's goroutine and starts none; this keeps it that way.
func TestResumeFailureClosesCluster(t *testing.T) {
	cfg := Config{
		Theta: 0.6, Ncrit: 64, G: 1, Eps: 0.05,
		Engine: EngineGRAPE5, Shards: 2, Blocks: 3, DTMin: 0.00125,
	}
	sim, err := NewSimulation(Plummer(128, 1, 1, 1, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(1); err != nil {
		t.Fatal(err)
	}
	c := sim.DurableState()
	c.Sys = c.Sys.Clone()
	if err := sim.Close(); err != nil {
		t.Fatal(err)
	}
	c.Block.Tick = -1 // SetState refuses it, after NewSimulation built the cluster

	settled := func() int {
		n := runtime.NumGoroutine()
		for i := 0; i < 50; i++ {
			time.Sleep(10 * time.Millisecond)
			if m := runtime.NumGoroutine(); m == n {
				return n
			} else {
				n = m
			}
		}
		return n
	}
	before := settled()
	if _, err := ResumeSimulation(c, Config{}); err == nil || !strings.Contains(err.Error(), "block scheduler") {
		t.Fatalf("ResumeSimulation = %v, want the block scheduler's refusal", err)
	}
	if after := settled(); after > before {
		t.Errorf("failed resume leaked goroutines: %d before, %d after", before, after)
	}
}
