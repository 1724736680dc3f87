package main

import (
	"fmt"
	"sort"
)

// metricDef declares one metric. The two tables below are the program's
// side of BENCHMARK.json: the smoke test asserts the file and the tables
// agree name for name, unit for unit, bound for bound.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen; unused for per-layer metrics.
	Bound float64
	// Exact marks a per-layer count that depends only on (workload, seed):
	// -compare demands equality (to 1e-9, for the float sums whose last
	// bits depend on the order two workers reach the device), not a bound.
	Exact bool
}

// endToEnd are the metrics of the untraced run, measured through the
// public grape5.Simulation facade or the HTTP surface. Every workload
// emits every one of them, and none can read zero. "op" is one
// Simulation.Step on the four simulation workloads (one block on
// block_plummer16k) and one job, submit to result bytes, on
// serve_smalljobs.
//
// The three timings are a run's best, not its median: the fastest set-up,
// the fastest op, the fastest stretch of ops. The shared sandbox slows a
// process down in phases of seconds to minutes (a fixed arithmetic kernel
// reads 39, 44 or 50 ms there, in three discrete levels; the emulator
// workloads read up to 45 % slow, CPU time and wall time alike) and never
// speeds it up. A run's median is the program's cost plus the mix of
// phases it met; its fastest op needs only one quiet half second. Over ten
// seeds per workload the minimum spread least of min, p10, p25 and p50 on
// the three workloads the phases move most (grape 12/14/19/21 %, serve
// 5/10/11/15 %, cluster 21/28/28/23 % with a slow phase over six of the
// ten runs, 1.0/1.1/2.0/4.8 % without one).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_wall_min_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "particle_steps_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics of the traced run. A workload that does not
// exercise a layer emits 0 for it: that zero is the "no change predicted
// here" half of every later claim.
var perLayer = []metricDef{
	{Name: "ic.gen_s", Unit: "s", Better: "lower"},
	{Name: "ic.particles", Unit: "count", Better: "lower", Exact: true},

	{Name: "morton.keys_s", Unit: "s", Better: "lower"},
	{Name: "morton.sort_s", Unit: "s", Better: "lower"},
	{Name: "octree.build_s", Unit: "s", Better: "lower"},
	{Name: "octree.refresh_s", Unit: "s", Better: "lower"},
	{Name: "octree.groups_s", Unit: "s", Better: "lower"},
	{Name: "octree.nodes", Unit: "count", Better: "lower", Exact: true},
	{Name: "octree.groups", Unit: "count", Better: "lower", Exact: true},

	{Name: "core.force_s", Unit: "s", Better: "lower"},
	{Name: "core.self_s", Unit: "s", Better: "lower"},
	{Name: "core.walk_only_s", Unit: "s", Better: "lower"},
	{Name: "core.walk_active_s", Unit: "s", Better: "lower"},
	{Name: "core.interactions", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.avg_list", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.active_i", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.active_frac", Unit: "ratio", Better: "lower", Exact: true},

	{Name: "engine.wall_s", Unit: "s", Better: "lower"},
	{Name: "engine.accumulate_busy_s", Unit: "s", Better: "lower"},
	{Name: "engine.flush_wait_s", Unit: "s", Better: "lower"},
	{Name: "engine.calls", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.ni_mean", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.nj_mean", Unit: "count", Better: "lower", Exact: true},
	{Name: "hostk.p2p_ns_per_interaction", Unit: "ns", Better: "lower"},

	{Name: "g5.compute_ns_per_interaction", Unit: "ns", Better: "lower"},
	{Name: "g5.engine_ns_per_interaction", Unit: "ns", Better: "lower"},
	{Name: "g5.guard_ns_per_interaction", Unit: "ns", Better: "lower"},
	{Name: "g5.guard_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "g5.setscale_s", Unit: "s", Better: "lower"},
	{Name: "g5.hw_model_s_per_step", Unit: "s", Better: "lower"},
	{Name: "g5.pipe_model_s", Unit: "s", Better: "lower", Exact: true},
	{Name: "g5.bus_model_s", Unit: "s", Better: "lower", Exact: true},
	{Name: "g5.bytes", Unit: "count", Better: "lower", Exact: true},
	{Name: "g5.runs", Unit: "count", Better: "lower", Exact: true},
	{Name: "g5.j_passes", Unit: "count", Better: "lower", Exact: true},
	{Name: "g5.interactions", Unit: "count", Better: "lower", Exact: true},
	{Name: "g5.recoveries", Unit: "count", Better: "lower", Exact: true},
	{Name: "g5.cluster_steals", Unit: "count", Better: "lower"},
	{Name: "g5.cluster_shard_imbalance", Unit: "ratio", Better: "lower"},

	{Name: "integrate.self_s", Unit: "s", Better: "lower"},
	{Name: "integrate.substeps", Unit: "count", Better: "lower", Exact: true},
	{Name: "integrate.energy_drift", Unit: "ratio", Better: "lower"},

	{Name: "ckpt.save_s", Unit: "s", Better: "lower"},
	{Name: "ckpt.read_s", Unit: "s", Better: "lower"},
	{Name: "ckpt.bytes", Unit: "count", Better: "lower", Exact: true},
	{Name: "ckpt.mb_per_s", Unit: "MB/s", Better: "higher"},

	{Name: "sim.step_wall_p50_s", Unit: "s", Better: "lower"},
	{Name: "sim.step_wall_p75_s", Unit: "s", Better: "lower"},
	{Name: "sim.step_overhead_s", Unit: "s", Better: "lower"},
	{Name: "sim.alloc_bytes_per_step", Unit: "count", Better: "lower"},
	{Name: "obs.phase_sum_frac", Unit: "ratio", Better: "higher"},

	{Name: "serve.jobs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.job_latency_p90_s", Unit: "s", Better: "lower"},
	{Name: "serve.first_step_latency_p50_s", Unit: "s", Better: "lower"},
	{Name: "serve.submit_p50_s", Unit: "s", Better: "lower"},
	{Name: "serve.queue_wait_p50_s", Unit: "s", Better: "lower"},
	{Name: "serve.run_p50_s", Unit: "s", Better: "lower"},
	{Name: "serve.result_fetch_p50_s", Unit: "s", Better: "lower"},
	{Name: "serve.decode_us", Unit: "us", Better: "lower"},
	{Name: "serve.events_received", Unit: "count", Better: "higher"},
	{Name: "serve.events_expected", Unit: "count", Better: "higher"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.bare_replay_s", Unit: "s", Better: "lower"},
	{Name: "serve.overhead_frac", Unit: "ratio", Better: "lower"},

	{Name: "check.force_err_rms", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "check.failed_share", Unit: "ratio", Better: "lower", Exact: true},

	{Name: "rt.num_gc", Unit: "count", Better: "lower"},
	{Name: "rt.gc_pause_s", Unit: "s", Better: "lower"},
	{Name: "rt.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.closure_defect_frac", Unit: "ratio", Better: "lower"},
}

// metricValue is one measured metric. Samples is how many observations
// the value summarises (1 for a count read once).
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// metricSet collects a run's metrics against one of the tables above.
type metricSet struct {
	defs   map[string]metricDef
	order  []string
	values map[string]metricValue
	err    error
}

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{defs: map[string]metricDef{}, values: map[string]metricValue{}}
	for _, d := range defs {
		m.defs[d.Name] = d
		m.order = append(m.order, d.Name)
	}
	return m
}

// set records a metric; an undeclared name is a bug in the benchmark and
// fails the run at finish.
func (m *metricSet) set(name string, value float64, samples int) {
	d, ok := m.defs[name]
	if !ok {
		if m.err == nil {
			m.err = fmt.Errorf("metric %q is not declared", name)
		}
		return
	}
	m.values[name] = metricValue{Value: value, Unit: d.Unit, Samples: samples}
}

// finish returns the declared metrics in table order. With fillZero a
// metric the run never set reads 0 (a layer the workload does not
// exercise); without it a missing metric is an error.
func (m *metricSet) finish(fillZero bool) (map[string]metricValue, error) {
	if m.err != nil {
		return nil, m.err
	}
	for _, name := range m.order {
		if _, ok := m.values[name]; ok {
			continue
		}
		if !fillZero {
			return nil, fmt.Errorf("metric %q was not measured", name)
		}
		m.values[name] = metricValue{Unit: m.defs[name].Unit}
	}
	return m.values, nil
}

// print writes every metric by name with its unit and sample count, in
// table order.
func (m *metricSet) print() {
	for _, name := range m.order {
		v, ok := m.values[name]
		if !ok {
			continue
		}
		fmt.Printf("  %-32s %-18.9g %-6s n=%d\n", name, v.Value, v.Unit, v.Samples)
	}
}

// median returns the middle of xs (mean of the middle two for an even
// count); 0 for an empty slice.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// windowRates slides a window of k consecutive operations over a run and
// returns each window's rate, work done over time taken. cost[i] is the
// wall time operation i added to the run and work[i] what it completed.
// A run shorter than k is one window.
func windowRates(cost, work []float64, k int) []float64 {
	k = min(k, len(cost))
	if k == 0 {
		return nil
	}
	var c, w float64
	rates := make([]float64, 0, len(cost)-k+1)
	for i := range cost {
		c += cost[i]
		w += work[i]
		if i >= k {
			c -= cost[i-k]
			w -= work[i-k]
		}
		if i >= k-1 {
			rates = append(rates, w/c)
		}
	}
	return rates
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}
