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

	grape5 "repro"
)

// Models and engines a job may request: the root package's names (the
// service offers the model-unit problems and the two treecode engines).
const (
	ModelPlummer = grape5.ModelPlummer
	ModelUniform = grape5.ModelUniform

	EngineHost   = "host"
	EngineGRAPE5 = "grape5"
)

// JobRequest is a job's configuration, on the wire (POST /jobs) and in
// the server. Every field except model and n is optional on the wire;
// DecodeJobRequest resolves zero values to the documented defaults and
// checks every bound against the admitting budget, so the request the
// scheduler, the runner, job.json and the reference harness hold is
// fully concrete. Resolution is idempotent: a resolved request resolves
// to itself, which is how a restart re-admits persisted jobs.
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
	// Theta is the Barnes-Hut opening parameter (default
	// grape5.DefaultTheta).
	Theta float64 `json:"theta"`
	// Ncrit is the group-size bound n_g (default grape5.DefaultNcrit).
	Ncrit int `json:"ncrit"`
	// DT is the integration timestep (default per model).
	DT float64 `json:"dt"`
	// Eps is the softening length (default per model).
	Eps float64 `json:"eps"`
	// Seed is the IC generator seed (default 1).
	Seed uint64 `json:"seed"`
	// Engine is "host" (default) or "grape5".
	Engine string `json:"engine"`
	// Boards is the number of boards to lease from the server pool
	// (grape5 engine only; default 1; host jobs must leave it 0).
	Boards int `json:"boards"`
}

// The bounds the service alone owns, beyond grape5.Config.Validate and
// the operator's Budget: a floor on job size and ceilings that keep one
// request from buying unbounded host work per step.
const (
	minParticles = 16
	maxTheta     = 2
	maxNcrit     = 1 << 20
)

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

// DecodeJobRequest reads one JSON job request and resolves it under the
// given budget. It is strict in every direction the fuzzer probes:
// unknown fields, trailing garbage, non-finite or negative numerics and
// over-budget requests are all loud errors — an invalid configuration
// is never admitted, and no input panics.
func DecodeJobRequest(r io.Reader, b Budget) (JobRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req JobRequest
	if err := dec.Decode(&req); err != nil {
		return JobRequest{}, fmt.Errorf("decode: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		return JobRequest{}, errors.New("decode: trailing data after request object")
	}
	return req.resolve(b.withDefaults())
}

// resolve fills unset fields from the shared defaults (grape5's theta
// and n_g, the model table's eps and dt) and judges the result: the
// service's own bounds here, every numeric rule in the one place all
// front-ends share, SimConfig().Validate. It never reads server state:
// the same request resolves to the same value on every server.
func (req JobRequest) resolve(b Budget) (JobRequest, error) {
	s := req
	if s.Tenant == "" {
		s.Tenant = "default"
	}
	if !validTenant(s.Tenant) {
		return JobRequest{}, fmt.Errorf("tenant %q: must be 1-32 chars of [a-zA-Z0-9._-]", s.Tenant)
	}
	if s.Model == "" {
		return JobRequest{}, fmt.Errorf("model is required (%s or %s)", ModelPlummer, ModelUniform)
	}
	m, err := grape5.LookupModel(s.Model)
	if err != nil {
		return JobRequest{}, err
	}
	if s.N < minParticles || s.N > b.MaxParticles {
		return JobRequest{}, fmt.Errorf("n=%d out of budget [%d, %d]", s.N, minParticles, b.MaxParticles)
	}
	if s.Steps < 1 || s.Steps > b.MaxSteps {
		return JobRequest{}, fmt.Errorf("steps=%d out of budget [1, %d]", s.Steps, b.MaxSteps)
	}
	if s.Theta == 0 {
		s.Theta = grape5.DefaultTheta
	}
	if s.Theta > maxTheta {
		return JobRequest{}, fmt.Errorf("theta=%v too large (max %d)", s.Theta, maxTheta)
	}
	if s.Ncrit == 0 {
		s.Ncrit = grape5.DefaultNcrit
	}
	if s.Ncrit > maxNcrit {
		return JobRequest{}, fmt.Errorf("ncrit=%d too large (max %d)", s.Ncrit, maxNcrit)
	}
	if s.DT == 0 {
		s.DT = m.DT
	}
	if s.Eps == 0 {
		s.Eps = m.Eps
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Engine == "" {
		s.Engine = EngineHost
	}
	switch s.Engine {
	case EngineHost:
		if s.Boards != 0 {
			return JobRequest{}, fmt.Errorf("boards=%d: host-engine jobs lease no boards", s.Boards)
		}
	case EngineGRAPE5:
		if s.Boards == 0 {
			s.Boards = 1
		}
		if s.Boards < 1 || s.Boards > b.Boards {
			return JobRequest{}, fmt.Errorf("boards=%d out of budget [1, %d]", s.Boards, b.Boards)
		}
	default:
		return JobRequest{}, fmt.Errorf("unknown engine %q (want %s or %s)", s.Engine, EngineHost, EngineGRAPE5)
	}
	if err := s.SimConfig().Validate(); err != nil {
		return JobRequest{}, err
	}
	return s, nil
}

// SimConfig translates the request into the simulation configuration
// the runner and the standalone reference both use, in the model's
// units. A GRAPE job is always guarded: a K-board lease drives a K-shard
// cluster, a single board a 1-shard one (bitwise the same forces). It is
// meant for a resolved request: a model or engine name resolve would
// refuse maps to the zero value here.
func (s JobRequest) SimConfig() grape5.Config {
	m, _ := grape5.LookupModel(s.Model)
	cfg := grape5.Config{
		Theta: s.Theta,
		Ncrit: s.Ncrit,
		G:     m.G,
		Eps:   s.Eps,
		DT:    s.DT,
	}
	cfg.Engine, _ = grape5.ParseEngine(s.Engine)
	if cfg.Engine == grape5.EngineGRAPE5 {
		if s.Boards > 1 {
			cfg.Shards = s.Boards
		} else {
			cfg.Guard = true
		}
	}
	return cfg
}

// NewSystem builds the request's initial conditions (nil for an unknown
// model, which NewSimulation refuses). Deterministic in the request
// alone: same request, same particles, on the server or in a test.
func (s JobRequest) NewSystem() *grape5.System {
	m, err := grape5.LookupModel(s.Model)
	if err != nil {
		return nil
	}
	return m.New(s.N, s.Seed)
}
