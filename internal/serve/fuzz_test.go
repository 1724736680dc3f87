package serve_test

// FuzzJobRequest drives the wire decoder/validator with arbitrary
// bytes. The contract under fuzz: never panic, never admit an invalid
// configuration — any request that comes back error-free must be fully
// resolved and inside the budget, pass the one validator every front-end
// shares (grape5.Config.Validate), and resolve to itself.

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/serve"
)

func FuzzJobRequest(f *testing.F) {
	seeds := []string{
		`{"model":"plummer","n":100,"steps":5}`,
		`{"tenant":"alice","model":"uniform","n":64,"steps":3,"engine":"grape5","boards":2}`,
		`{"model":"plummer","n":100,"steps":5,"theta":0.9,"ncrit":500,"dt":0.001,"eps":0.05,"seed":42}`,
		`{"model":"plummer","n":-1,"steps":5}`,
		`{"model":"plummer","n":1000000000,"steps":5}`,
		`{"model":"plummer","n":100,"steps":5,"theta":-1}`,
		`{"model":"plummer","n":100,"steps":5,"theta":1e999}`,
		`{"model":"plummer","n":100,"steps":5,"dt":-0.5}`,
		`{"model":"plummer","n":100,"steps":5,"boards":99}`,
		`{"model":"nope","n":100,"steps":5}`,
		`{"tenant":"../etc","model":"plummer","n":100,"steps":5}`,
		`{"model":"plummer","n":100,"steps":5}{"model":"plummer"}`,
		`{"model":"plummer","n":100,"steps":5,"extra":true}`,
		`{`, ``, `null`, `[1,2,3]`, `"plummer"`, `{"n":1e308,"steps":1e308}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	budget := serve.Budget{MaxParticles: 10_000, MaxSteps: 1_000, Boards: 4}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := serve.DecodeJobRequest(bytes.NewReader(data), budget)
		if err != nil {
			return
		}
		// Accepted: every field must be concrete and within budget.
		if spec.Tenant == "" || len(spec.Tenant) > 32 {
			t.Fatalf("admitted bad tenant %q", spec.Tenant)
		}
		if spec.Model != serve.ModelPlummer && spec.Model != serve.ModelUniform {
			t.Fatalf("admitted bad model %q", spec.Model)
		}
		if spec.N < 16 || spec.N > budget.MaxParticles {
			t.Fatalf("admitted n=%d outside budget", spec.N)
		}
		if spec.Steps < 1 || spec.Steps > budget.MaxSteps {
			t.Fatalf("admitted steps=%d outside budget", spec.Steps)
		}
		for name, v := range map[string]float64{"theta": spec.Theta, "dt": spec.DT, "eps": spec.Eps} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				t.Fatalf("admitted non-finite %s=%v", name, v)
			}
		}
		if spec.Theta > 2 {
			t.Fatalf("admitted theta=%v", spec.Theta)
		}
		if spec.Ncrit < 1 || spec.Ncrit > 1<<20 {
			t.Fatalf("admitted ncrit=%d", spec.Ncrit)
		}
		switch spec.Engine {
		case serve.EngineHost:
			if spec.Boards != 0 {
				t.Fatalf("admitted host job with boards=%d", spec.Boards)
			}
		case serve.EngineGRAPE5:
			if spec.Boards < 1 || spec.Boards > budget.Boards {
				t.Fatalf("admitted boards=%d outside pool", spec.Boards)
			}
		default:
			t.Fatalf("admitted bad engine %q", spec.Engine)
		}
		if spec.Seed == 0 {
			t.Fatal("admitted zero seed")
		}
		// The resolved request must translate without surprises, into a
		// configuration NewSimulation will take.
		cfg := spec.SimConfig()
		if cfg.DT != spec.DT || cfg.Theta != spec.Theta {
			t.Fatalf("SimConfig mismatch: %+v vs %+v", cfg, spec)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("admitted %+v, which grape5.Config.Validate refuses: %v", spec, err)
		}
		// Resolution is idempotent — what a restart relies on to re-admit
		// persisted jobs: the resolved request re-decodes to itself.
		wire, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		again, err := serve.DecodeJobRequest(bytes.NewReader(wire), budget)
		if err != nil || again != spec {
			t.Fatalf("resolved request does not resolve to itself:\n first %+v\nsecond %+v (%v)", spec, again, err)
		}
	})
}
