package grape5

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/ckpt"
)

// ckptRoundTrip pushes the simulation's state through the real on-disk
// format (encode + fully-validating decode), so these tests cover the
// serialisation path, not just in-memory copying.
func ckptRoundTrip(t *testing.T, sim *Simulation) *ckpt.Checkpoint {
	t.Helper()
	var buf bytes.Buffer
	if err := ckpt.Write(&buf, sim.DurableState()); err != nil {
		t.Fatal(err)
	}
	c, err := ckpt.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// requireBitwiseEqual compares two systems field-by-field with exact
// float equality — the checkpoint/resume contract is bitwise, not
// approximately-equal.
func requireBitwiseEqual(t *testing.T, want, got *System) {
	t.Helper()
	if want.N() != got.N() {
		t.Fatalf("N = %d, want %d", got.N(), want.N())
	}
	for i := range want.Pos {
		if want.Pos[i] != got.Pos[i] || want.Vel[i] != got.Vel[i] ||
			want.Acc[i] != got.Acc[i] || want.Mass[i] != got.Mass[i] ||
			want.Pot[i] != got.Pot[i] || want.ID[i] != got.ID[i] {
			t.Fatalf("particle %d diverged after resume", i)
		}
	}
}

// testBitwiseResume runs the uninterrupted reference, then an identical
// run cut at step `cut`, checkpointed through the wire format, resumed
// with resumeCfg, and advanced to the same total step count. Every
// particle field, the simulation clock and the interaction totals must
// match the reference exactly.
func testBitwiseResume(t *testing.T, cfg, resumeCfg Config) {
	t.Helper()
	const total, cut = 8, 3
	mk := func() *Simulation {
		s := Plummer(256, 1, 1, 1, 11)
		sim, err := NewSimulation(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}

	ref := mk()
	defer ref.Close()
	if err := ref.Prime(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(total); err != nil {
		t.Fatal(err)
	}

	a := mk()
	defer a.Close()
	a.SetAux(RunAux{Scale: 0.04, T0: 0.1, Age0: 13.2, Seed: 11})
	if err := a.Prime(); err != nil {
		t.Fatal(err)
	}
	if err := a.Run(cut); err != nil {
		t.Fatal(err)
	}
	c := ckptRoundTrip(t, a)

	b, err := ResumeSimulation(c, resumeCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if !b.Primed() {
		t.Fatal("resumed simulation is not primed — it would re-run the priming force call")
	}
	if b.Steps() != cut {
		t.Fatalf("resumed at step %d, want %d", b.Steps(), cut)
	}
	if b.Aux() != a.Aux() {
		t.Errorf("aux anchors not restored: %+v", b.Aux())
	}
	if err := b.Run(total - cut); err != nil {
		t.Fatal(err)
	}

	requireBitwiseEqual(t, ref.Sys, b.Sys)
	if b.Time() != ref.Time() {
		t.Errorf("time = %v, want bitwise %v", b.Time(), ref.Time())
	}
	if b.TotalInteractions != ref.TotalInteractions {
		t.Errorf("total interactions = %d, want %d", b.TotalInteractions, ref.TotalInteractions)
	}
}

func TestResumeBitwiseHost(t *testing.T) {
	cfg := Config{Theta: 0.6, Ncrit: 64, G: 1, Eps: 0.05, DT: 0.005, Engine: EngineHost}
	// Resume with the zero config: every fingerprint field inherits.
	testBitwiseResume(t, cfg, Config{})
}

func TestResumeBitwiseGRAPEGuarded(t *testing.T) {
	cfg := Config{Theta: 0.6, Ncrit: 64, G: 1, Eps: 0.05, DT: 0.005,
		Engine: EngineGRAPE5, Guard: true}
	// Resume with the full original config: every merge hits the
	// values-equal path; Guard rides along (not fingerprinted).
	testBitwiseResume(t, cfg, cfg)
}

func TestResumeBitwiseCluster(t *testing.T) {
	cfg := Config{Theta: 0.6, Ncrit: 64, G: 1, Eps: 0.05, DT: 0.005,
		Engine: EngineGRAPE5, Guard: true, Shards: 2}
	testBitwiseResume(t, cfg, cfg)
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

// TestResumeCounterContinuity: whole-run counters must continue from the
// checkpointed totals, not restart at zero — the regression the paper's
// cumulative Mflops accounting would hit otherwise.
func TestResumeCounterContinuity(t *testing.T) {
	cfg := Config{Theta: 0.6, Ncrit: 64, G: 1, Eps: 0.05, DT: 0.005,
		Engine: EngineGRAPE5, Guard: true}
	s := Plummer(256, 1, 1, 1, 5)
	a, err := NewSimulation(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Run(3); err != nil {
		t.Fatal(err)
	}
	rec0, hw0, ti0 := a.Recovery(), a.HardwareCounters(), a.TotalInteractions
	if rec0.Checks == 0 || hw0.Runs == 0 || ti0 == 0 {
		t.Fatalf("guarded run recorded no activity: rec=%+v hw=%+v", rec0, hw0)
	}

	b, err := ResumeSimulation(ckptRoundTrip(t, a), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// Immediately after resume the live counters are zero, so the merged
	// totals must equal the checkpointed totals exactly.
	if got := b.Recovery(); got != rec0 {
		t.Errorf("recovery after resume = %+v, want %+v", got, rec0)
	}
	if got := b.HardwareCounters(); got != hw0 {
		t.Errorf("hardware counters after resume = %+v, want %+v", got, hw0)
	}
	if b.TotalInteractions != ti0 {
		t.Errorf("total interactions after resume = %d, want %d", b.TotalInteractions, ti0)
	}
	// And they keep counting up from there.
	if err := b.Run(1); err != nil {
		t.Fatal(err)
	}
	if got := b.Recovery(); got.Checks <= rec0.Checks {
		t.Errorf("recovery checks did not advance past base: %d", got.Checks)
	}
	if got := b.HardwareCounters(); got.Runs <= hw0.Runs {
		t.Errorf("hardware runs did not advance past base: %d", got.Runs)
	}
}

// TestSimulationCheckpointStore drives the Store-backed Checkpoint
// method: durable save, telemetry on the step report, and recovery via
// LatestValid.
func TestSimulationCheckpointStore(t *testing.T) {
	s := Plummer(128, 1, 1, 1, 3)
	sim, err := NewSimulation(s, Config{Theta: 0.6, Ncrit: 64, G: 1, Eps: 0.05, DT: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(2); err != nil {
		t.Fatal(err)
	}
	store, err := ckpt.OpenStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sim.Checkpoint(store)
	if err != nil {
		t.Fatal(err)
	}
	if info.Step != 2 || info.Bytes == 0 {
		t.Errorf("save info = %+v", info)
	}
	if sim.LastReport.CkptWrites != 1 || sim.LastReport.CkptBytes != info.Bytes {
		t.Errorf("checkpoint telemetry not folded into LastReport: %+v", sim.LastReport)
	}
	if sim.LastReport.Phases.Checkpoint <= 0 {
		t.Errorf("checkpoint phase seconds = %v", sim.LastReport.Phases.Checkpoint)
	}
	c, gen, err := store.LatestValid()
	if err != nil {
		t.Fatal(err)
	}
	if gen.Step != 2 || c.State.Step != 2 || !c.State.Primed {
		t.Errorf("latest valid = gen %+v state step %d primed %v", gen, c.State.Step, c.State.Primed)
	}
	requireBitwiseEqual(t, sim.Sys, c.Sys)
}
