package serve_test

// Decoder/validator table tests and the JSON-schema golden tests for
// the service's response bodies. The goldens pin the *shape* of the
// wire format (field names and types, recursively), so an accidental
// rename or type change in /jobs or /metrics fails loudly here instead
// of breaking clients silently.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/g5"
	"repro/internal/obs"
	"repro/internal/serve"
)

var update = flag.Bool("update", false, "rewrite golden files")

func testBudget() serve.Budget {
	return serve.Budget{
		MaxParticles: 10_000,
		MaxSteps:     1_000,
		Boards:       4,
	}
}

func decode(t *testing.T, body string) (serve.JobRequest, error) {
	t.Helper()
	return serve.DecodeJobRequest(strings.NewReader(body), testBudget())
}

func TestDecodeJobRequestDefaults(t *testing.T) {
	spec, err := decode(t, `{"model":"plummer","n":100,"steps":5}`)
	if err != nil {
		t.Fatal(err)
	}
	want := serve.JobRequest{
		Tenant: "default", Model: "plummer", N: 100, Steps: 5,
		Theta: 0.75, Ncrit: 2000, DT: 0.005, Eps: 0.02, Seed: 1,
		Engine: "host", Boards: 0,
	}
	if spec != want {
		t.Errorf("resolved spec\n got %+v\nwant %+v", spec, want)
	}
	spec, err = decode(t, `{"model":"uniform","n":100,"steps":5,"engine":"grape5"}`)
	if err != nil {
		t.Fatal(err)
	}
	if spec.DT != 0.002 {
		t.Errorf("uniform default dt = %v, want 0.002", spec.DT)
	}
	if spec.Boards != 1 {
		t.Errorf("grape5 default boards = %d, want 1", spec.Boards)
	}
}

func TestDecodeJobRequestRejections(t *testing.T) {
	cases := []struct {
		name, body, wantErr string
	}{
		{"empty", ``, "decode"},
		{"malformed", `{"model":`, "decode"},
		{"unknown field", `{"model":"plummer","n":100,"steps":5,"bogus":1}`, "bogus"},
		{"trailing garbage", `{"model":"plummer","n":100,"steps":5} {"x":1}`, "trailing"},
		{"no model", `{"n":100,"steps":5}`, "model is required"},
		{"bad model", `{"model":"hernquist","n":100,"steps":5}`, "unknown model"},
		{"n too small", `{"model":"plummer","n":4,"steps":5}`, "out of budget"},
		{"n negative", `{"model":"plummer","n":-7,"steps":5}`, "out of budget"},
		{"n over budget", `{"model":"plummer","n":20000,"steps":5}`, "out of budget"},
		{"steps zero", `{"model":"plummer","n":100,"steps":0}`, "out of budget"},
		{"steps over budget", `{"model":"plummer","n":100,"steps":5000}`, "out of budget"},
		{"theta negative", `{"model":"plummer","n":100,"steps":5,"theta":-0.5}`, "theta"},
		{"theta huge", `{"model":"plummer","n":100,"steps":5,"theta":3}`, "theta"},
		{"theta overflow", `{"model":"plummer","n":100,"steps":5,"theta":1e999}`, "decode"},
		{"dt negative", `{"model":"plummer","n":100,"steps":5,"dt":-0.01}`, "dt"},
		{"eps negative", `{"model":"plummer","n":100,"steps":5,"eps":-1}`, "eps"},
		{"ncrit negative", `{"model":"plummer","n":100,"steps":5,"ncrit":-3}`, "ncrit"},
		{"bad engine", `{"model":"plummer","n":100,"steps":5,"engine":"gpu"}`, "unknown engine"},
		{"host with boards", `{"model":"plummer","n":100,"steps":5,"boards":2}`, "lease no boards"},
		{"boards over pool", `{"model":"plummer","n":100,"steps":5,"engine":"grape5","boards":9}`, "out of budget"},
		{"boards negative", `{"model":"plummer","n":100,"steps":5,"engine":"grape5","boards":-1}`, "out of budget"},
		{"bad tenant", `{"tenant":"a/b","model":"plummer","n":100,"steps":5}`, "tenant"},
		{"tenant too long", fmt.Sprintf(`{"tenant":%q,"model":"plummer","n":100,"steps":5}`, strings.Repeat("x", 40)), "tenant"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := decode(t, tc.body); err == nil {
				t.Fatalf("accepted %q", tc.body)
			} else if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// shapeOf reduces a decoded JSON value to its schema shape: objects map
// field name to the field's shape, arrays reduce to their (first)
// element's shape, scalars reduce to their JSON type name.
func shapeOf(t *testing.T, path string, v any) any {
	t.Helper()
	switch x := v.(type) {
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, e := range x {
			out[k] = shapeOf(t, path+"."+k, e)
		}
		return out
	case []any:
		if len(x) == 0 {
			t.Fatalf("golden sample has empty array at %s — populate it so the element schema is pinned", path)
		}
		return []any{shapeOf(t, path+"[0]", x[0])}
	case float64:
		return "number"
	case string:
		return "string"
	case bool:
		return "boolean"
	case nil:
		return "null"
	default:
		t.Fatalf("unexpected JSON value at %s: %T", path, v)
		return nil
	}
}

// schemaJSON marshals v and renders its shape (schemaOfJSON).
func schemaJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return schemaOfJSON(t, raw)
}

// schemaOfJSON decodes raw and renders its shape as canonical indented
// JSON (keys sorted by encoding/json).
func schemaOfJSON(t *testing.T, raw []byte) []byte {
	t.Helper()
	var decoded any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(shapeOf(t, "$", decoded), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("response schema drifted from %s (run with -update if intentional):\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// samplePhases fills every phase with a non-zero value so omitempty
// fields appear in the schema.
func samplePhases() obs.PhaseSeconds {
	return obs.PhaseSeconds{
		MortonSort: 1, TreeBuild: 2, GroupWalk: 3, ForceEval: 4, Guard: 5,
		JTransfer: 6, ITransfer: 7, Pipeline: 8, Readback: 9, Checkpoint: 10,
	}
}

// sampleJobStatus is a fully-populated status: every optional field
// set, so the golden pins the complete wire surface.
func sampleJobStatus() serve.JobStatus {
	rep := obs.StepReport{
		Step: 3, WallSeconds: 0.1, THost: 0.05, TGrape: 0.02, TComm: 0.01,
		TBuild: 0.03, BytesAlloc: 64, Phases: samplePhases(),
		Interactions: 1000, Flops: 38000, Bytes: 512, Groups: 4,
		NodesVisited: 99, Recoveries: 1, Fallbacks: 1, CkptBytes: 2048, CkptWrites: 1,
		Substeps: 4, ActiveI: 250, ActiveFrac: 0.625,
	}
	return serve.JobStatus{
		ID:     "job-000001",
		Tenant: "alice",
		State:  serve.StateDone,
		Spec: serve.JobRequest{
			Tenant: "alice", Model: "plummer", N: 100, Steps: 5, Theta: 0.75,
			Ncrit: 2000, DT: 0.005, Eps: 0.02, Seed: 1, Engine: "grape5", Boards: 2,
		},
		Step: 5, Steps: 5, Progress: 1, Interactions: 5000,
		ResumedFrom: 2, DoneSeq: 1, Error: "context",
		Phases:     samplePhases(),
		LastReport: &rep,
	}
}

func TestJobStatusSchemaGolden(t *testing.T) {
	checkGolden(t, "job_status.golden.json", schemaJSON(t, sampleJobStatus()))
}

func TestEventSchemaGolden(t *testing.T) {
	st := sampleJobStatus()
	ev := serve.Event{Job: st.ID, State: serve.StateRunning, Step: 3, Report: st.LastReport}
	checkGolden(t, "event.golden.json", schemaJSON(t, ev))
}

func TestMetricsSchemaGolden(t *testing.T) {
	m := serve.Metrics{
		UptimeSeconds: 12.5, QueueDepth: 3, Running: 2, BoardsLeased: 3,
		BoardsPool: 4, Paused: true, Draining: true, JobsSubmitted: 9,
		JobsCompleted: 4, JobsFailed: 1, JobsCanceled: 1, JobsRejected: 2,
		StepsServed: 123, InteractionsServed: 456789,
		Tenants: []serve.TenantMetrics{{
			Tenant: "alice", Weight: 2, Queued: 1, Running: 1,
			Submitted: 5, Completed: 2, Failed: 1, Canceled: 1, Rejected: 1,
		}},
	}
	checkGolden(t, "metrics.golden.json", schemaJSON(t, m))
}

func TestHealthStatusSchemaGolden(t *testing.T) {
	h := serve.HealthStatus{
		Status: "degraded", UptimeSeconds: 3.5, BoardsLeased: 2, BoardsPool: 4,
		Running: []serve.JobHealth{{
			Job: "job-000001", Tenant: "alice",
			Health: g5.Health{
				Shards: 2, BoardsTotal: 2, BoardsActive: 1, HostOnly: false,
				Recovery: g5.Recovery{Checks: 5, Retries: 1, CorruptResults: 1,
					ExcludedBoards: 1, FallbackBatches: 1, HostOnly: false},
				Boards: []g5.BoardHealth{{Shard: 0, Board: 0, InService: true}},
			},
		}},
	}
	checkGolden(t, "healthz.golden.json", schemaJSON(t, h))
}
