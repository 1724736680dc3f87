package grape5

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/ckpt"
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
		{"workers negative", with(func(c *Config) { c.Workers = -2 }), "workers"},
		{"blocks negative", with(func(c *Config) { c.Blocks = -1 }), "blocks"},
		{"unknown engine", with(func(c *Config) { c.Engine = 7 }), "engine"},
		{"shards on host", with(func(c *Config) { c.Shards = 2 }), "grape5 engine"},
		{"guard on host", with(func(c *Config) { c.Guard = true }), "grape5 engine"},
		{"guard on pm", with(func(c *Config) { c.Engine, c.Guard = EnginePM, true }), "grape5 engine"},
		{"faults on host", with(func(c *Config) { c.Fault = &g5.FaultModel{Seed: 1} }), "grape5 engine"},
		{"fault rate above 1", with(func(c *Config) {
			c.Engine, c.Guard, c.Fault = EngineGRAPE5, true, &g5.FaultModel{StuckPipeRate: 1.5}
		}), "StuckPipeRate"},
		{"blocks without dtmin", with(func(c *Config) { c.Blocks, c.DT = 4, 0 }), "DTMin"},
		{"blocks with adaptive", with(func(c *Config) { c.Blocks, c.DTMin, c.DT, c.Adaptive = 4, 0.001, 0, true }), "exclusive"},
		{"blocks without eps", with(func(c *Config) { c.Blocks, c.DTMin, c.DT, c.Eps = 4, 0.000625, 0, 0 }), "eps"},
		{"adaptive without eps", with(func(c *Config) { c.Adaptive, c.Eta, c.Eps = true, 0.2, 0 }), "eps"},
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
		base, // theta, ncrit unset: defaults
		with(func(c *Config) { c.Engine, c.Guard = EngineGRAPE5, true }),
		with(func(c *Config) { c.Engine, c.Shards = EngineGRAPE5, 2 }),
		with(func(c *Config) { c.Shards = 1 }), // 0 and 1 both mean one system
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
		if got := sim.Config(); got.Theta != cfg.Theta || got.Ncrit != cfg.Ncrit {
			t.Errorf("good config %d: Config() materialised defaults: %+v", i, got)
		}
		if err := sim.Close(); err != nil {
			t.Error(err)
		}
	}
}

// TestBlockConfigValidation pins the Config-level block-mode rules that
// TestConfigValidate's general table leaves out.
func TestBlockConfigValidation(t *testing.T) {
	s := Plummer(64, 1, 1, 1, 2)
	bad := []struct {
		cfg  Config
		want string
	}{
		{Config{Blocks: 4, DTMin: 0.001, Adaptive: true}, "exclusive"},
		{Config{Blocks: 4}, "DTMin"},
		{Config{Blocks: 32, DTMin: 0.001}, "rung levels"},
		{Config{Blocks: 4, DTMin: 0.001, DT: 0.005}, "block span"},
		{Config{Blocks: 4, DTMin: 0.001, Engine: EnginePM}, "PM engine"},
	}
	for i, tc := range bad {
		if sim, err := NewSimulation(s, tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("bad config %d: NewSimulation = %v, want an error naming %q", i, err, tc.want)
			if err == nil {
				sim.Close()
			}
		}
	}
	// DT equal to the exact span is accepted.
	sim, err := NewSimulation(s, Config{Blocks: 4, DTMin: 0.000625, DT: 0.005, G: 1, Eps: 0.05})
	if err != nil {
		t.Fatalf("DT == span rejected: %v", err)
	}
	if err := sim.Close(); err != nil {
		t.Error(err)
	}
}

func TestResumeConfigConflictsAreLoud(t *testing.T) {
	st := ckpt.State{Theta: 0.7, Eps: 0.05, DT: 0.005, Engine: 0}
	if _, err := ResumeConfig(st, Config{Theta: 0.6}); err == nil || !strings.Contains(err.Error(), "theta") {
		t.Errorf("theta conflict not loud: %v", err)
	}
	// EngineHost in the checkpoint is a known value, not "unset": asking
	// for GRAPE must not silently change the physics.
	if _, err := ResumeConfig(st, Config{Engine: EngineGRAPE5}); err == nil || !strings.Contains(err.Error(), "engine") {
		t.Errorf("engine conflict not loud: %v", err)
	}
	// Legacy snapshot: no stored DT and none given — must demand one.
	if _, err := ResumeConfig(ckpt.State{Engine: -1}, Config{}); err == nil || !strings.Contains(err.Error(), "timestep") {
		t.Errorf("missing timestep not loud: %v", err)
	}
	// Shards is bitwise-neutral: explicit override is allowed, unset
	// inherits.
	got, err := ResumeConfig(ckpt.State{DT: 0.005, Shards: 2, Engine: -1}, Config{Shards: 4})
	if err != nil || got.Shards != 4 {
		t.Errorf("shards override: cfg=%+v err=%v", got, err)
	}
	got, err = ResumeConfig(ckpt.State{DT: 0.005, Shards: 2, Engine: -1}, Config{})
	if err != nil || got.Shards != 2 {
		t.Errorf("shards inherit: cfg=%+v err=%v", got, err)
	}
}

// TestResumeRefusesRetiredOptions: leaf capacity and tree reuse are no
// longer run options, so a checkpoint of a run that set them to another
// value than every run now uses cannot continue its trajectory. The
// refusal names the field; the values every front-end wrote resume.
func TestResumeRefusesRetiredOptions(t *testing.T) {
	resume := func(st ckpt.State) error {
		st.DT, st.Engine = 0.005, int64(EngineHost)
		sim, err := ResumeSimulation(&ckpt.Checkpoint{State: st, Sys: Plummer(32, 1, 1, 1, 1)}, Config{G: 1})
		if err == nil {
			err = sim.Close()
		}
		return err
	}
	for _, tc := range []struct {
		st   ckpt.State
		want string
	}{
		{ckpt.State{LeafCap: 4}, "leafcap"},
		{ckpt.State{LeafCap: -8}, "leafcap"},
		{ckpt.State{LeafCap: 8, RebuildEvery: 3}, "rebuild-every"},
	} {
		if err := resume(tc.st); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("LeafCap %d RebuildEvery %d: resume = %v, want a refusal naming %q",
				tc.st.LeafCap, tc.st.RebuildEvery, err, tc.want)
		}
	}
	for _, st := range []ckpt.State{{}, {LeafCap: 8, RebuildEvery: 1}} {
		if err := resume(st); err != nil {
			t.Errorf("LeafCap %d RebuildEvery %d refused: %v", st.LeafCap, st.RebuildEvery, err)
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
