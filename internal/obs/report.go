package obs

import (
	"encoding/json"
	"fmt"
	"time"
)

// PhaseSeconds is the fixed per-phase breakdown of one step, in
// seconds. Host phases are measured wall-clock (group_walk and
// force_eval are CPU time summed across workers); hardware phases are
// simulated seconds from the g5 timing model.
type PhaseSeconds struct {
	MortonSort float64 `json:"morton_sort"`
	TreeBuild  float64 `json:"tree_build"`
	GroupWalk  float64 `json:"group_walk"`
	ForceEval  float64 `json:"force_eval"`
	Guard      float64 `json:"guard"`
	JTransfer  float64 `json:"j_transfer"`
	ITransfer  float64 `json:"i_transfer"`
	Pipeline   float64 `json:"pipeline"`
	Readback   float64 `json:"readback"`
	// Checkpoint is the durable-write cost charged to this step; omitted
	// from JSON when zero (most steps write no checkpoint).
	Checkpoint float64 `json:"checkpoint,omitempty"`
}

// Add accumulates q into p, phase by phase. Long-lived drivers (the
// job server's per-job totals, multi-step roll-ups) fold each completed
// step's breakdown into a running sum with it; a new phase added to the
// struct must be added here too (the reflection test in report_test.go
// enforces that).
func (p *PhaseSeconds) Add(q PhaseSeconds) {
	p.MortonSort += q.MortonSort
	p.TreeBuild += q.TreeBuild
	p.GroupWalk += q.GroupWalk
	p.ForceEval += q.ForceEval
	p.Guard += q.Guard
	p.JTransfer += q.JTransfer
	p.ITransfer += q.ITransfer
	p.Pipeline += q.Pipeline
	p.Readback += q.Readback
	p.Checkpoint += q.Checkpoint
}

// StepReport is the structured telemetry of one simulation step — the
// paper's time-balance row plus the activity counters behind it.
type StepReport struct {
	// Step is the 1-based step number (0 for the priming force call).
	Step int `json:"step"`
	// WallSeconds is the measured wall-clock of the whole step.
	WallSeconds float64 `json:"wall_seconds"`
	// THost is the measured host time: Morton sort + tree build +
	// group walk + guard overhead (this machine's t_host; force_eval is
	// excluded because on the emulator it stands in for the hardware).
	THost float64 `json:"t_host"`
	// TGrape is the simulated pipeline streaming time (t_grape).
	TGrape float64 `json:"t_grape"`
	// TComm is the simulated host-interface time: j/i uploads plus
	// force readback (t_comm).
	TComm float64 `json:"t_comm"`
	// TBuild is the tree-construction share of the host time: Morton
	// sort plus tree build — the serial (non-overlappable) prefix of
	// the step.
	TBuild float64 `json:"t_build"`
	// BytesAlloc is the heap memory allocated during the step (from
	// runtime/metrics; 0 when the step driver does not meter it). The
	// arena pipeline holds this near zero in steady state.
	BytesAlloc int64 `json:"bytes_alloc"`
	// Phases is the full per-phase breakdown.
	Phases PhaseSeconds `json:"phases"`
	// Interactions, Flops and Bytes are the step's work counters.
	Interactions int64   `json:"interactions"`
	Flops        float64 `json:"flops"`
	Bytes        int64   `json:"bytes"`
	// Groups and NodesVisited summarise the traversal.
	Groups       int64 `json:"groups"`
	NodesVisited int64 `json:"nodes_visited"`
	// Recoveries and Fallbacks count fault-handling activity.
	Recoveries int64 `json:"recoveries"`
	Fallbacks  int64 `json:"fallbacks"`
	// CkptBytes and CkptWrites record checkpoint activity (omitted when
	// zero: most steps write no checkpoint).
	CkptBytes  int64 `json:"ckpt_bytes,omitempty"`
	CkptWrites int64 `json:"ckpt_writes,omitempty"`
	// Substeps and ActiveI describe block-timestep activity: the number
	// of force calculations in the step and the total force-evaluated
	// field particles across them. ActiveFrac = ActiveI/(N × Substeps)
	// is filled in by the step driver (the Observer does not know N).
	// All omitted when zero so shared-dt reports keep their old schema.
	Substeps   int64   `json:"substeps,omitempty"`
	ActiveI    int64   `json:"active_i,omitempty"`
	ActiveFrac float64 `json:"active_frac,omitempty"`
}

// Snapshot rolls the Observer up into a StepReport for the given step
// number and measured step wall-clock.
func (o *Observer) Snapshot(step int, wall time.Duration) StepReport {
	r := StepReport{Step: step, WallSeconds: wall.Seconds()}
	if o == nil {
		return r
	}
	r.Phases = PhaseSeconds{
		MortonSort: o.Seconds(PhaseMortonSort),
		TreeBuild:  o.Seconds(PhaseTreeBuild),
		GroupWalk:  o.Seconds(PhaseGroupWalk),
		ForceEval:  o.Seconds(PhaseForceEval),
		Guard:      o.Seconds(PhaseGuard),
		JTransfer:  o.Seconds(PhaseJTransfer),
		ITransfer:  o.Seconds(PhaseITransfer),
		Pipeline:   o.Seconds(PhasePipeline),
		Readback:   o.Seconds(PhaseReadback),
		Checkpoint: o.Seconds(PhaseCheckpoint),
	}
	r.THost = r.Phases.MortonSort + r.Phases.TreeBuild + r.Phases.GroupWalk + r.Phases.Guard
	r.TBuild = r.Phases.MortonSort + r.Phases.TreeBuild
	r.TGrape = r.Phases.Pipeline
	r.TComm = r.Phases.JTransfer + r.Phases.ITransfer + r.Phases.Readback
	r.Interactions = o.Count(CntInteractions)
	r.Flops = float64(o.Count(CntFlops))
	r.Bytes = o.Count(CntBytes)
	r.Groups = o.Count(CntGroups)
	r.NodesVisited = o.Count(CntNodesVisited)
	r.Recoveries = o.Count(CntRecoveries)
	r.Fallbacks = o.Count(CntFallbacks)
	r.CkptBytes = o.Count(CntCkptBytes)
	r.CkptWrites = o.Count(CntCkptWrites)
	r.Substeps = o.Count(CntSubsteps)
	r.ActiveI = o.Count(CntActiveI)
	return r
}

// JSON returns the report as a single JSON object.
func (r StepReport) JSON() ([]byte, error) { return json.Marshal(r) }

// String formats the report for humans, one step per line.
func (r StepReport) String() string {
	s := fmt.Sprintf(
		"step %d: wall=%.4gs host=%.4gs (sort %.4g build %.4g walk %.4g guard %.4g) grape=%.4gs comm=%.4gs inter=%d groups=%d",
		r.Step, r.WallSeconds, r.THost,
		r.Phases.MortonSort, r.Phases.TreeBuild, r.Phases.GroupWalk, r.Phases.Guard,
		r.TGrape, r.TComm, r.Interactions, r.Groups)
	if r.Recoveries > 0 || r.Fallbacks > 0 {
		s += fmt.Sprintf(" recoveries=%d fallbacks=%d", r.Recoveries, r.Fallbacks)
	}
	return s
}
