package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/hostk"
	"repro/internal/nbody"
	"repro/internal/rng"
	"repro/internal/vec"
)

func plummer(n int, seed uint64) *nbody.System {
	return nbody.Plummer(n, 1, 1, 1, rng.New(seed))
}

// rmsForceError returns the RMS of |a_got - a_ref| / |a_ref|.
func rmsForceError(got, ref []vec.V3) float64 {
	var sum float64
	for i := range got {
		r := ref[i].Norm()
		if r == 0 {
			continue
		}
		d := got[i].Sub(ref[i]).Norm() / r
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(got)))
}

func TestModifiedMatchesDirectSmallTheta(t *testing.T) {
	// With θ→0 every cell is opened and the modified algorithm
	// degenerates to exact direct summation.
	s := plummer(300, 1)
	ref := s.Clone()
	nbody.DirectForces(ref, 1, 0.01)

	tc := New(Options{Theta: 1e-9, Ncrit: 32, G: 1, Eps: 0.01}, nil)
	stats, err := tc.ComputeForces(s)
	if err != nil {
		t.Fatal(err)
	}
	// s was Morton-reordered: match by ID.
	byID := make(map[int64]vec.V3, ref.N())
	potByID := make(map[int64]float64, ref.N())
	for i := range ref.Pos {
		byID[ref.ID[i]] = ref.Acc[i]
		potByID[ref.ID[i]] = ref.Pot[i]
	}
	for i := range s.Pos {
		want := byID[s.ID[i]]
		if s.Acc[i].Sub(want).Norm() > 1e-10*(1+want.Norm()) {
			t.Fatalf("particle ID %d: acc %v, want %v", s.ID[i], s.Acc[i], want)
		}
		if math.Abs(s.Pot[i]-potByID[s.ID[i]]) > 1e-10*(1+math.Abs(potByID[s.ID[i]])) {
			t.Fatalf("particle ID %d: pot %v, want %v", s.ID[i], s.Pot[i], potByID[s.ID[i]])
		}
	}
	// θ≈0 with N=300: every pair evaluated at least once.
	if stats.Interactions < int64(300*299) {
		t.Errorf("interactions = %d, want >= %d", stats.Interactions, 300*299)
	}
}

func TestOriginalMatchesDirectSmallTheta(t *testing.T) {
	s := plummer(200, 2)
	ref := s.Clone()
	nbody.DirectForces(ref, 1, 0.02)

	tc := New(Options{Theta: 1e-9, G: 1, Eps: 0.02}, nil)
	if _, err := tc.ComputeForcesOriginal(s); err != nil {
		t.Fatal(err)
	}
	byID := make(map[int64]vec.V3, ref.N())
	for i := range ref.Pos {
		byID[ref.ID[i]] = ref.Acc[i]
	}
	for i := range s.Pos {
		want := byID[s.ID[i]]
		if s.Acc[i].Sub(want).Norm() > 1e-10*(1+want.Norm()) {
			t.Fatalf("particle ID %d: acc %v, want %v", s.ID[i], s.Acc[i], want)
		}
	}
}

func TestModifiedForceAccuracy(t *testing.T) {
	// At θ=0.75 the tree force error should be well below 1% RMS — the
	// paper quotes ~0.1% dominated by the tree approximation.
	s := plummer(3000, 3)
	ref := s.Clone()
	nbody.DirectForces(ref, 1, 0.01)
	refByID := make(map[int64]vec.V3)
	for i := range ref.Pos {
		refByID[ref.ID[i]] = ref.Acc[i]
	}

	tc := New(Options{Theta: 0.75, Ncrit: 256, G: 1, Eps: 0.01}, nil)
	if _, err := tc.ComputeForces(s); err != nil {
		t.Fatal(err)
	}
	refOrdered := make([]vec.V3, s.N())
	for i := range s.Pos {
		refOrdered[i] = refByID[s.ID[i]]
	}
	rms := rmsForceError(s.Acc, refOrdered)
	if rms > 0.01 {
		t.Errorf("modified tree RMS force error = %v, want < 1%%", rms)
	}
	if rms == 0 {
		t.Error("tree force exactly equals direct — approximation suspiciously absent")
	}
}

func TestModifiedMoreAccurateThanOriginal(t *testing.T) {
	// The paper (§3, citing Barnes 1990) notes the modified algorithm is
	// MORE accurate than the original at the same θ: nearby forces are
	// exact and the group MAC measures distance from the group surface.
	s1 := plummer(3000, 4)
	ref := s1.Clone()
	nbody.DirectForces(ref, 1, 0.01)
	refByID := make(map[int64]vec.V3)
	for i := range ref.Pos {
		refByID[ref.ID[i]] = ref.Acc[i]
	}
	get := func(s *nbody.System) []vec.V3 {
		out := make([]vec.V3, s.N())
		for i := range s.Pos {
			out[i] = refByID[s.ID[i]]
		}
		return out
	}

	tcMod := New(Options{Theta: 0.9, Ncrit: 256, G: 1, Eps: 0.01}, nil)
	if _, err := tcMod.ComputeForces(s1); err != nil {
		t.Fatal(err)
	}
	rmsMod := rmsForceError(s1.Acc, get(s1))

	s2 := ref.Clone()
	tcOrig := New(Options{Theta: 0.9, G: 1, Eps: 0.01}, nil)
	if _, err := tcOrig.ComputeForcesOriginal(s2); err != nil {
		t.Fatal(err)
	}
	rmsOrig := rmsForceError(s2.Acc, get(s2))

	if rmsMod >= rmsOrig {
		t.Errorf("modified RMS %v not better than original %v", rmsMod, rmsOrig)
	}
}

func TestModifiedListsLongerThanOriginal(t *testing.T) {
	// The flip side (§3): the modified algorithm does MORE interactions.
	// The ratio at n_g=2000-scale groups is what the paper's 2.90e13 vs
	// 4.69e12 (≈6.2×) measures.
	s := plummer(4000, 5)
	tc := New(Options{Theta: 0.75, Ncrit: 512, G: 1}, &CountEngine{})
	mod, err := tc.ComputeForces(s.Clone())
	if err != nil {
		t.Fatal(err)
	}
	orig, err := New(Options{Theta: 0.75, G: 1}, nil).CountOriginal(s.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if mod.Interactions <= orig {
		t.Errorf("modified %d should exceed original %d", mod.Interactions, orig)
	}
	ratio := float64(mod.Interactions) / float64(orig)
	if ratio < 1.5 || ratio > 50 {
		t.Errorf("modified/original ratio = %v, outside plausible range", ratio)
	}
}

func TestCountEngineMatchesStats(t *testing.T) {
	s := plummer(1000, 6)
	ce := &CountEngine{}
	tc := New(Options{Theta: 0.75, Ncrit: 128, G: 1}, ce)
	stats, err := tc.ComputeForces(s)
	if err != nil {
		t.Fatal(err)
	}
	if ce.Interactions() != stats.Interactions {
		t.Errorf("engine count %d != stats count %d", ce.Interactions(), stats.Interactions)
	}
	ce.Reset()
	if ce.Interactions() != 0 {
		t.Error("Reset failed")
	}
}

func TestStatsConsistency(t *testing.T) {
	s := plummer(2000, 7)
	tc := New(Options{Theta: 0.75, Ncrit: 100, G: 1}, &CountEngine{})
	stats, err := tc.ComputeForces(s)
	if err != nil {
		t.Fatal(err)
	}
	if stats.N != 2000 {
		t.Errorf("N = %d", stats.N)
	}
	if stats.Groups < 2000/100 {
		t.Errorf("groups = %d, too few", stats.Groups)
	}
	// Both algorithms split their list entries into cells and
	// particles, with forces and count-only alike.
	orig, err := New(Options{Theta: 0.75, G: 1}, &CountEngine{}).ComputeForcesOriginal(s.Clone())
	if err != nil {
		t.Fatal(err)
	}
	count, err := New(Options{Theta: 0.75, G: 1}, nil).walkOriginal(s.Clone(), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*Stats{stats, orig, count} {
		if st.CellTerms <= 0 || st.ParticleTerms <= 0 || st.CellTerms+st.ParticleTerms != st.ListSum {
			t.Errorf("cell %d + particle %d != listsum %d",
				st.CellTerms, st.ParticleTerms, st.ListSum)
		}
	}
	if stats.MinList <= 0 || stats.MaxList < stats.MinList {
		t.Errorf("list bounds [%d, %d] invalid", stats.MinList, stats.MaxList)
	}
	if stats.AvgList() <= 0 {
		t.Error("AvgList = 0")
	}
	// Every group sees at least the whole system once in aggregate:
	// interactions >= N (each particle interacts with something).
	if stats.Interactions < int64(stats.N) {
		t.Errorf("interactions = %d < N", stats.Interactions)
	}
	if stats.String() == "" {
		t.Error("empty String()")
	}
}

func TestNcritControlsListLength(t *testing.T) {
	// Larger n_g ⇒ fewer groups, longer lists, more interactions:
	// the §3 trade-off.
	s := plummer(4000, 8)
	var prevInteractions int64
	var prevGroups int
	for i, ncrit := range []int{16, 128, 1024} {
		stats, err := New(Options{Theta: 0.75, Ncrit: ncrit, G: 1}, &CountEngine{}).ComputeForces(s.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if stats.Interactions <= prevInteractions {
				t.Errorf("ncrit=%d: interactions %d not larger than %d at smaller ncrit",
					ncrit, stats.Interactions, prevInteractions)
			}
			if stats.Groups >= prevGroups {
				t.Errorf("ncrit=%d: groups %d not fewer than %d", ncrit, stats.Groups, prevGroups)
			}
		}
		prevInteractions = stats.Interactions
		prevGroups = stats.Groups
	}
}

func TestThetaControlsAccuracyAndCost(t *testing.T) {
	s := plummer(2000, 9)
	ref := s.Clone()
	nbody.DirectForces(ref, 1, 0.01)
	refByID := make(map[int64]vec.V3)
	for i := range ref.Pos {
		refByID[ref.ID[i]] = ref.Acc[i]
	}

	var prevErr float64
	var prevCost int64
	for i, theta := range []float64{0.3, 0.7, 1.2} {
		sc := ref.Clone()
		stats, err := New(Options{Theta: theta, Ncrit: 64, G: 1, Eps: 0.01}, nil).ComputeForces(sc)
		if err != nil {
			t.Fatal(err)
		}
		refOrdered := make([]vec.V3, sc.N())
		for k := range sc.Pos {
			refOrdered[k] = refByID[sc.ID[k]]
		}
		rms := rmsForceError(sc.Acc, refOrdered)
		if i > 0 {
			if rms < prevErr {
				t.Errorf("θ=%v: error %v decreased from %v", theta, rms, prevErr)
			}
			if stats.Interactions > prevCost {
				t.Errorf("θ=%v: cost %d increased from %d", theta, stats.Interactions, prevCost)
			}
		}
		prevErr = rms
		prevCost = stats.Interactions
	}
}

func TestWorkersProduceSameForces(t *testing.T) {
	s := plummer(1500, 10)
	s1 := s.Clone()
	s4 := s.Clone()
	if _, err := New(Options{Theta: 0.75, Ncrit: 64, G: 1, Eps: 0.01, Workers: 1}, nil).ComputeForces(s1); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Theta: 0.75, Ncrit: 64, G: 1, Eps: 0.01, Workers: 4}, nil).ComputeForces(s4); err != nil {
		t.Fatal(err)
	}
	for i := range s1.Acc {
		if s1.ID[i] != s4.ID[i] {
			t.Fatal("different particle ordering between runs")
		}
		if s1.Acc[i].Sub(s4.Acc[i]).Norm() > 1e-13*(1+s1.Acc[i].Norm()) {
			t.Fatalf("worker-count-dependent force at %d", i)
		}
	}
}

func TestMomentumConservationModified(t *testing.T) {
	// Newton's third law holds only approximately for tree forces, but
	// the residual must be small relative to the typical force.
	s := plummer(3000, 11)
	if _, err := New(Options{Theta: 0.75, Ncrit: 256, G: 1, Eps: 0.01}, nil).ComputeForces(s); err != nil {
		t.Fatal(err)
	}
	var net vec.V3
	var typical float64
	for i := range s.Acc {
		net = net.MulAdd(s.Mass[i], s.Acc[i])
		typical += s.Mass[i] * s.Acc[i].Norm()
	}
	if net.Norm() > 1e-2*typical/float64(s.N())*float64(s.N()) {
		// net force should be << sum of |f|
		t.Errorf("net force %v vs Σ|f| %v", net.Norm(), typical)
	}
}

func TestDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Theta != 0.75 || o.Ncrit != 2000 || o.G != 1 || o.Workers < 1 {
		t.Errorf("defaults = %+v", o)
	}
	tc := New(Options{}, nil)
	if _, ok := tc.Engine.(*HostEngine); !ok {
		t.Error("nil engine should default to HostEngine")
	}
}

func TestEmptySystemFails(t *testing.T) {
	tc := New(Options{}, nil)
	if _, err := tc.ComputeForces(nbody.New(0)); err == nil {
		t.Error("empty system accepted")
	}
	if _, err := tc.ComputeForcesOriginal(nbody.New(0)); err == nil {
		t.Error("empty system accepted by original")
	}
	if _, err := tc.CountOriginal(nbody.New(0)); err == nil {
		t.Error("empty system accepted by CountOriginal")
	}
}

// scalarRefEngine is the retired AoS host loop wrapped as an Engine —
// the self-guard contract must hold identically for both kernels.
type scalarRefEngine struct{ g, eps float64 }

func (e *scalarRefEngine) Accumulate(req *Request) {
	nj := req.J.N
	jpos := make([]vec.V3, nj)
	for j := 0; j < nj; j++ {
		jpos[j] = vec.V3{X: req.J.X[j], Y: req.J.Y[j], Z: req.J.Z[j]}
	}
	hostk.ScalarAccumulate(e.g, e.eps, req.IPos, jpos, req.J.M[:nj], req.Acc, req.Pot)
}

func TestHostEngineSelfGuard(t *testing.T) {
	// A source exactly at the field point contributes nothing — in the
	// SoA tile kernel (zero-mass select, padded and unpadded tails) and
	// in the scalar reference alike, at any GOMAXPROCS.
	engines := map[string]Engine{
		"soa":    &HostEngine{G: 1},
		"scalar": &scalarRefEngine{g: 1},
	}
	for _, procs := range []int{1, 4} {
		for name, eng := range engines {
			for _, pad := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/procs=%d/pad=%v", name, procs, pad), func(t *testing.T) {
					prev := runtime.GOMAXPROCS(procs)
					defer runtime.GOMAXPROCS(prev)
					req := Request{
						IPos: []vec.V3{{X: 1}},
						Acc:  make([]vec.V3, 1),
						Pot:  make([]float64, 1),
					}
					req.J.Append(1, 0, 0, 5) // exactly at the field point
					req.J.Append(2, 0, 0, 1)
					if pad {
						req.J.Pad()
					}
					eng.Accumulate(&req)
					if math.Abs(req.Acc[0].X-1) > 1e-14 {
						t.Errorf("acc = %v, want exactly the non-self contribution 1", req.Acc[0])
					}
					if math.Abs(req.Pot[0]+1) > 1e-14 {
						t.Errorf("pot = %v, want -1", req.Pot[0])
					}
				})
			}
		}
	}
}

// Property: the original walk's interaction count per particle is
// bounded by N-1 (never more work than direct summation per particle)
// and at least 1 for N >= 2.
func TestOriginalCountBoundsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(200)
		s := nbody.New(n)
		for i := range s.Pos {
			s.Pos[i] = vec.V3{X: r.Normal(), Y: r.Normal(), Z: r.Normal()}
			s.Mass[i] = 1
		}
		tc := New(Options{Theta: 0.5 + r.Float64(), G: 1}, nil)
		count, err := tc.CountOriginal(s)
		if err != nil {
			return false
		}
		return count >= int64(n) && count <= int64(n)*int64(n-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: with θ=0 the count equals exactly N(N-1) — full direct.
func TestOriginalCountDirectLimit(t *testing.T) {
	s := plummer(150, 12)
	count, err := New(Options{Theta: 1e-12, G: 1}, nil).CountOriginal(s)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(150 * 149)
	if count != want {
		t.Errorf("θ→0 count = %d, want %d", count, want)
	}
}

// TestWorkersExceedingGroups: more workers than groups must not break
// or change results.
func TestWorkersExceedingGroups(t *testing.T) {
	s := plummer(200, 22)
	tc := New(Options{Theta: 0.75, Ncrit: 100000, G: 1, Eps: 0.01, Workers: 16}, nil)
	st, err := tc.ComputeForces(s)
	if err != nil {
		t.Fatal(err)
	}
	if st.Groups != 1 {
		t.Errorf("groups = %d, want 1", st.Groups)
	}
	for i := range s.Acc {
		if !s.Acc[i].IsFinite() {
			t.Fatalf("non-finite acceleration at %d", i)
		}
	}
}

// TestDeterministicAcrossRuns: the same input system must produce
// bit-identical forces on repeated runs (no map-iteration or
// scheduling nondeterminism).
func TestDeterministicAcrossRuns(t *testing.T) {
	s := plummer(1000, 23)
	run := func() []vec.V3 {
		sc := s.Clone()
		tc := New(Options{Theta: 0.75, Ncrit: 128, G: 1, Eps: 0.01, Workers: 4}, nil)
		if _, err := tc.ComputeForces(sc); err != nil {
			t.Fatal(err)
		}
		out := make([]vec.V3, sc.N())
		copy(out, sc.Acc)
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic force at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestPotentialSignAndScale: tree potentials must be negative and match
// direct sums closely in aggregate.
func TestPotentialSignAndScale(t *testing.T) {
	s := plummer(2000, 24)
	ref := s.Clone()
	tc := New(Options{Theta: 0.6, Ncrit: 128, G: 1, Eps: 0.01}, nil)
	if _, err := tc.ComputeForces(s); err != nil {
		t.Fatal(err)
	}
	treePE := nbody.PotentialEnergyFromPot(s)
	directPE := nbody.PotentialEnergy(ref, 1, 0.01)
	if treePE >= 0 {
		t.Errorf("tree PE = %v, must be negative", treePE)
	}
	if math.Abs(treePE-directPE)/math.Abs(directPE) > 0.01 {
		t.Errorf("tree PE %v vs direct %v", treePE, directPE)
	}
}

// TestCountOriginalMatchesWalk: the count-only walk must agree exactly
// with the interaction count of the force-computing original walk.
func TestCountOriginalMatchesWalk(t *testing.T) {
	s := plummer(1500, 25)
	tcA := New(Options{Theta: 0.75, G: 1, Eps: 0.01}, nil)
	st, err := tcA.ComputeForcesOriginal(s.Clone())
	if err != nil {
		t.Fatal(err)
	}
	tcB := New(Options{Theta: 0.75, G: 1, Eps: 0.01}, nil)
	count, err := tcB.CountOriginal(s.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if count != st.Interactions {
		t.Errorf("count-only %d != walk %d", count, st.Interactions)
	}
}
