// Package serve is the multi-tenant simulation job server: a long-lived
// daemon that accepts treecode simulation jobs over HTTP JSON, admits
// them against a configurable resource budget, multiplexes concurrent
// runs onto a shared board pool under deterministic weighted-round-robin
// per-tenant scheduling with bounded queues and explicit backpressure,
// streams per-step telemetry over SSE, and persists job state through
// the checkpoint layer so a killed daemon resumes in-flight jobs on
// restart — bitwise identical to the uninterrupted runs.
//
// This is the GRAPE operating model at the service layer: the paper's
// $7.0/Mflops board cluster was shared infrastructure, and sharing is
// only honest if admission is explicit (429, never a silent drop),
// scheduling is fair (a heavy tenant cannot starve a light one), and
// results are reproducible (a job's bytes do not depend on what else
// the server was running).
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	grape5 "repro"
)

// Models and engines a job may request.
const (
	ModelPlummer = "plummer"
	ModelUniform = "uniform"

	EngineHost   = "host"
	EngineGRAPE5 = "grape5"
)

// JobRequest is the POST /jobs wire format. Every field except model and
// n is optional; zero values resolve to documented defaults during
// validation.
type JobRequest struct {
	// Tenant is the submitting tenant's identity (default "default");
	// fairness and queue bounds are accounted per tenant.
	Tenant string `json:"tenant"`
	// Model is the initial-conditions model: "plummer" or "uniform".
	Model string `json:"model"`
	// N is the particle count.
	N int `json:"n"`
	// Steps is the number of integration steps to run.
	Steps int `json:"steps"`
	// Theta is the Barnes-Hut opening parameter (default 0.75).
	Theta float64 `json:"theta"`
	// Ncrit is the group-size bound n_g (default 2000).
	Ncrit int `json:"ncrit"`
	// DT is the integration timestep (default per model).
	DT float64 `json:"dt"`
	// Eps is the softening length (default 0.02).
	Eps float64 `json:"eps"`
	// Seed is the IC generator seed (default 1).
	Seed uint64 `json:"seed"`
	// Engine is "host" (default) or "grape5".
	Engine string `json:"engine"`
	// Boards is the number of boards to lease from the server pool
	// (grape5 engine only; default 1; host jobs must leave it 0).
	Boards int `json:"boards"`
}

// JobSpec is a validated, fully-resolved job configuration: every field
// is concrete, every bound checked against the admitting budget. It is
// the unit the scheduler, the runner and the reference harness all
// agree on — DecodeJobRequest is the only way to make one from wire
// bytes, so a spec in hand is a spec within budget. It has the wire
// fields of JobRequest under a distinct type.
type JobSpec JobRequest

// Default model timesteps: a Plummer sphere in model units tolerates a
// coarser step than the colder uniform sphere.
const (
	defaultDTPlummer = 0.005
	defaultDTUniform = 0.002
	defaultTheta     = 0.75
	defaultNcrit     = 2000
	defaultEps       = 0.02
	minParticles     = 16
)

// finitePositive rejects NaN, Inf, zero and negatives in one breath.
func finitePositive(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
		return fmt.Errorf("%s must be finite and positive, got %v", name, v)
	}
	return nil
}

// validTenant enforces the tenant-name charset: 1–32 characters of
// [a-zA-Z0-9._-]. Names reach filesystem paths and log lines, so the
// alphabet is closed, not advisory.
func validTenant(s string) bool {
	if len(s) == 0 || len(s) > 32 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// DecodeJobRequest reads one JSON job request and resolves it into a
// validated JobSpec under the given budget. It is strict in every
// direction the fuzzer probes: unknown fields, trailing garbage,
// non-finite or negative numerics and over-budget requests are all loud
// errors — an invalid configuration is never admitted, and no input
// panics.
func DecodeJobRequest(r io.Reader, b Budget) (JobSpec, error) {
	b = b.withDefaults()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req JobRequest
	if err := dec.Decode(&req); err != nil {
		return JobSpec{}, fmt.Errorf("decode: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		return JobSpec{}, errors.New("decode: trailing data after request object")
	}
	return resolveSpec(req, b)
}

// resolveSpec applies defaults and validates every field against the
// budget. It never mutates shared state: the same request resolves to
// the same spec on every server.
func resolveSpec(req JobRequest, b Budget) (JobSpec, error) {
	s := JobSpec(req)
	if s.Tenant == "" {
		s.Tenant = "default"
	}
	if !validTenant(s.Tenant) {
		return JobSpec{}, fmt.Errorf("tenant %q: must be 1-32 chars of [a-zA-Z0-9._-]", s.Tenant)
	}
	switch s.Model {
	case ModelPlummer, ModelUniform:
	case "":
		return JobSpec{}, errors.New("model is required (plummer or uniform)")
	default:
		return JobSpec{}, fmt.Errorf("unknown model %q (want plummer or uniform)", s.Model)
	}
	if s.N < minParticles || s.N > b.MaxParticles {
		return JobSpec{}, fmt.Errorf("n=%d out of budget [%d, %d]", s.N, minParticles, b.MaxParticles)
	}
	if s.Steps < 1 || s.Steps > b.MaxSteps {
		return JobSpec{}, fmt.Errorf("steps=%d out of budget [1, %d]", s.Steps, b.MaxSteps)
	}
	if s.Theta == 0 {
		s.Theta = defaultTheta
	}
	if err := finitePositive("theta", s.Theta); err != nil {
		return JobSpec{}, err
	}
	if s.Theta > 2 {
		return JobSpec{}, fmt.Errorf("theta=%v too large (max 2)", s.Theta)
	}
	if s.Ncrit == 0 {
		s.Ncrit = defaultNcrit
	}
	if s.Ncrit < 1 || s.Ncrit > 1<<20 {
		return JobSpec{}, fmt.Errorf("ncrit=%d out of range [1, %d]", s.Ncrit, 1<<20)
	}
	if s.DT == 0 {
		if s.Model == ModelUniform {
			s.DT = defaultDTUniform
		} else {
			s.DT = defaultDTPlummer
		}
	}
	if err := finitePositive("dt", s.DT); err != nil {
		return JobSpec{}, err
	}
	if s.Eps == 0 {
		s.Eps = defaultEps
	}
	if err := finitePositive("eps", s.Eps); err != nil {
		return JobSpec{}, err
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	switch s.Engine {
	case "":
		s.Engine = EngineHost
	case EngineHost, EngineGRAPE5:
	default:
		return JobSpec{}, fmt.Errorf("unknown engine %q (want host or grape5)", s.Engine)
	}
	if s.Engine == EngineHost {
		if s.Boards != 0 {
			return JobSpec{}, fmt.Errorf("boards=%d: host-engine jobs lease no boards", s.Boards)
		}
	} else {
		if s.Boards == 0 {
			s.Boards = 1
		}
		if s.Boards < 1 || s.Boards > b.Boards {
			return JobSpec{}, fmt.Errorf("boards=%d out of budget [1, %d]", s.Boards, b.Boards)
		}
	}
	return s, nil
}

// SimConfig translates the spec into the simulation configuration the
// runner and the standalone reference both use. G is 1 (model units).
// A multi-board lease becomes a sharded cluster (bitwise-neutral, PR 3);
// a single board runs the guarded single-system engine.
func (s JobSpec) SimConfig() grape5.Config {
	cfg := grape5.Config{
		Theta: s.Theta,
		Ncrit: s.Ncrit,
		G:     1,
		Eps:   s.Eps,
		DT:    s.DT,
	}
	if s.Engine == EngineGRAPE5 {
		cfg.Engine = grape5.EngineGRAPE5
		if s.Boards > 1 {
			cfg.Shards = s.Boards
		} else {
			cfg.Guard = true
		}
	}
	return cfg
}

// NewSystem builds the spec's initial conditions. Deterministic in the
// spec alone: same spec, same particles, on the server or in a test.
func (s JobSpec) NewSystem() *grape5.System {
	switch s.Model {
	case ModelUniform:
		return grape5.UniformSphere(s.N, 1, 1, s.Seed)
	default:
		return grape5.Plummer(s.N, 1, 1, 1, s.Seed)
	}
}
