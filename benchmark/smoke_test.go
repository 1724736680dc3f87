package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json's fixed key set.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	root, err := benchRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeclarationsMatch: BENCHMARK.json and the program's tables declare
// the same workloads and metrics, within the contract's limits.
func TestDeclarationsMatch(t *testing.T) {
	b := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, b.Workloads[i].Name, w.name)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q breaks the name or why limit", w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %q breaks a contract limit", d.Name)
		}
		sawSetup = sawSetup || d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower"
	}
	if !sawSetup {
		t.Error("no setup_s metric in seconds, lower better")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		got := b.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("per-layer metric %q breaks a contract limit or repeats", d.Name)
		}
		seen[d.Name] = true
	}
}

func smokeRun(t *testing.T, name string, traced bool, defs []metricDef) runResult {
	t.Helper()
	res, err := runOne(name, runOpts{seed: defaultSeed, seconds: 0.2, smoke: true}, traced)
	if err != nil {
		t.Fatalf("%s traced=%t: %v", name, traced, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s traced=%t: %d metrics emitted, %d declared", name, traced, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("%s traced=%t: declared metric %q was not emitted", name, traced, d.Name)
		} else if v.Unit != d.Unit {
			t.Errorf("%s traced=%t: %q has unit %q, declared %q", name, traced, d.Name, v.Unit, d.Unit)
		}
	}
	return res
}

// TestSmoke runs all five workloads untraced and one traced at smoke
// sizes. Each run's own checks (resume equality, /result bytes, span
// closure, facade-versus-pipeline checksum) decide Correct; the test adds
// that exactly the declared names come out and that no end-to-end metric
// reads zero.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		res := smokeRun(t, w.name, false, endToEnd)
		for name, v := range res.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %q reads %v", w.name, name, v.Value)
			}
		}
	}
	res := smokeRun(t, "grape_plummer8k", true, perLayer)
	if v := res.Metrics["trace.closure_defect_frac"].Value; v > 0.02 {
		t.Errorf("traced run: layer self times miss the step wall by %v", v)
	}
	if v := res.Metrics["engine.wall_s"].Value; v <= 0 {
		t.Errorf("traced run: engine.wall_s = %v, want the emulator's share", v)
	}
}

// TestSelfTimeUsesUnionOfChildren: two overlapping children must not be
// counted twice, and the parts must close on the whole.
func TestSelfTimeUsesUnionOfChildren(t *testing.T) {
	tr := &tracer{}
	add := func(name string, parent int32, start, end int64) int32 {
		tr.spans = append(tr.spans, span{Name: name, Start: start, End: end, Parent: parent, Step: 1})
		return int32(len(tr.spans) - 1)
	}
	step := add(spanStep, -1, 0, 1000)
	force := add(spanForce, step, 100, 900)
	add(spanSetScale, force, 100, 150)
	compute := add(spanCompute, force, 150, 900)
	add(spanAccumulate, compute, 200, 600) // worker 0
	add(spanAccumulate, compute, 400, 800) // worker 1, overlapping
	add(spanFlush, compute, 850, 900)

	steps, _ := tr.breakdowns()
	if len(steps) != 1 {
		t.Fatalf("got %d steps, want 1", len(steps))
	}
	b := steps[0]
	ns := func(x float64) int64 { return int64(x*1e9 + 0.5) }
	if got := ns(b.engineWall); got != 650 { // [200,800] ∪ [850,900]
		t.Errorf("engine wall = %d, want 650", got)
	}
	if got := ns(b.accumulate); got != 800 {
		t.Errorf("accumulate busy = %d, want 800", got)
	}
	if got := ns(b.coreSelf); got != 100 {
		t.Errorf("core self = %d, want 100", got)
	}
	if got := ns(b.integrateSelf); got != 200 {
		t.Errorf("integrate self = %d, want 200", got)
	}
	if b.closure() > 1e-12 {
		t.Errorf("closure defect %v, want 0", b.closure())
	}
}

// TestWindowRates pins the sliding-window throughput: every window of k
// consecutive operations, and one window for a run shorter than k.
func TestWindowRates(t *testing.T) {
	cost := []float64{1, 1, 2, 4}
	work := []float64{2, 2, 2, 2}
	got := windowRates(cost, work, 2)
	want := []float64{2, 4.0 / 3, 4.0 / 6}
	if len(got) != len(want) {
		t.Fatalf("windows = %v, want %v", got, want)
	}
	for i := range want {
		if d := got[i] - want[i]; d > 1e-12 || d < -1e-12 {
			t.Errorf("window %d = %v, want %v", i, got[i], want[i])
		}
	}
	if short := windowRates(cost, work, 10); len(short) != 1 || short[0] != 1 {
		t.Errorf("short run = %v, want [1]", short)
	}
	if none := windowRates(nil, nil, 3); len(none) != 0 {
		t.Errorf("empty run = %v, want none", none)
	}
}

// TestCompareVerdicts pins the three verdicts of -compare.
func TestCompareVerdicts(t *testing.T) {
	mk := func(vals ...float64) *resultFile {
		f := &resultFile{Seed: 1}
		for _, v := range vals {
			f.Runs = append(f.Runs, runRecord{Workload: workloads[0].name, runResult: runResult{
				Correct: true, Metrics: map[string]metricValue{"op_wall_min_s": {Value: v, Unit: "s"}}}})
		}
		return f
	}
	dir := t.TempDir()
	write := func(name string, f *resultFile) string {
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent := write("parent.json", mk(1.00, 1.01, 1.02, 1.01, 1.00))
	for _, tc := range []struct {
		name   string
		change *resultFile
		worse  bool
	}{
		{"same", mk(1.01, 1.00, 1.02, 1.01, 1.00), false},
		{"slower", mk(1.30, 1.31, 1.32, 1.31, 1.30), true},
		{"noisy", mk(0.8, 1.5, 1.0, 1.9, 0.7), false}, // unresolved, not worse
	} {
		worse, err := compareFiles(parent, write(tc.name+".json", tc.change))
		if err != nil {
			t.Fatal(err)
		}
		if worse != tc.worse {
			t.Errorf("%s: worse = %t, want %t", tc.name, worse, tc.worse)
		}
	}
}
