package nbody

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/vec"
)

func TestNewSystem(t *testing.T) {
	s := New(5)
	if s.N() != 5 {
		t.Fatalf("N = %d", s.N())
	}
	for i, id := range s.ID {
		if id != int64(i) {
			t.Errorf("ID[%d] = %d", i, id)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := New(3)
	s.Pos[0] = vec.V3{X: 1}
	c := s.Clone()
	c.Pos[0] = vec.V3{X: 2}
	if s.Pos[0].X != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestApplyOrderScratch(t *testing.T) {
	s := New(3)
	for i := range s.Pos {
		s.Pos[i] = vec.V3{X: float64(i)}
		s.Mass[i] = float64(i + 1)
	}
	if err := s.ApplyOrderScratch([]int{2, 0, 1}, &PermScratch{}); err != nil {
		t.Fatal(err)
	}
	if s.Pos[0].X != 2 || s.Pos[1].X != 0 || s.Pos[2].X != 1 {
		t.Errorf("positions after order: %v", s.Pos)
	}
	if s.ID[0] != 2 {
		t.Errorf("IDs not permuted: %v", s.ID)
	}

	// Two permutations through one scratch equal two through fresh
	// scratches, bit for bit on all six arrays, and the reused scratch
	// holds one spare per element type, none longer than N.
	const n = 257
	r := rng.New(5)
	s = New(n)
	for i := 0; i < n; i++ {
		s.Pos[i] = vec.V3{X: r.Normal(), Y: r.Normal(), Z: r.Normal()}
		s.Vel[i] = vec.V3{X: r.Normal(), Y: r.Normal(), Z: r.Normal()}
		s.Acc[i] = vec.V3{X: r.Normal(), Y: r.Normal(), Z: r.Normal()}
		s.Mass[i], s.Pot[i] = r.Float64(), r.Normal()
	}
	fresh := s.Clone()
	var scr PermScratch
	for step := 0; step < 2; step++ {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		if err := s.ApplyOrderScratch(order, &scr); err != nil {
			t.Fatal(err)
		}
		if err := fresh.ApplyOrderScratch(order, &PermScratch{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if s.Pos[i] != fresh.Pos[i] || s.Vel[i] != fresh.Vel[i] || s.Acc[i] != fresh.Acc[i] ||
			math.Float64bits(s.Mass[i]) != math.Float64bits(fresh.Mass[i]) ||
			math.Float64bits(s.Pot[i]) != math.Float64bits(fresh.Pot[i]) || s.ID[i] != fresh.ID[i] {
			t.Fatalf("particle %d: one reused scratch and fresh scratches permute differently", i)
		}
	}
	spares := map[reflect.Type]int{}
	v := reflect.ValueOf(scr)
	for f := 0; f < v.NumField(); f++ {
		a := v.Field(f)
		if a.Kind() != reflect.Slice {
			continue
		}
		spares[a.Type().Elem()]++
		if a.Cap() > n {
			t.Errorf("spare %s has capacity %d > N = %d", v.Type().Field(f).Name, a.Cap(), n)
		}
	}
	for typ, k := range spares {
		if k != 1 {
			t.Errorf("scratch holds %d spare []%v arrays, want 1", k, typ)
		}
	}
	if len(spares) != 4 {
		t.Errorf("scratch holds spares of %d element types, want 4 ([]vec.V3, []float64, []int64, []bool)", len(spares))
	}
}

func TestApplyOrderRejectsBadPermutation(t *testing.T) {
	s := New(3)
	if err := s.ApplyOrderScratch([]int{0, 0, 1}, &PermScratch{}); err == nil {
		t.Error("duplicate index accepted")
	}
	if err := s.ApplyOrderScratch([]int{0, 1}, &PermScratch{}); err == nil {
		t.Error("short order accepted")
	}
	if err := s.ApplyOrderScratch([]int{0, 1, 3}, &PermScratch{}); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestBounds(t *testing.T) {
	s := New(2)
	s.Pos[0] = vec.V3{X: -1, Y: 2, Z: 0}
	s.Pos[1] = vec.V3{X: 3, Y: -4, Z: 5}
	b := s.Bounds()
	if b.Min != (vec.V3{X: -1, Y: -4, Z: 0}) || b.Max != (vec.V3{X: 3, Y: 2, Z: 5}) {
		t.Errorf("Bounds = %+v", b)
	}
}

func TestCenterOfMassAndRecenter(t *testing.T) {
	s := New(2)
	s.Pos[0] = vec.V3{X: 0}
	s.Pos[1] = vec.V3{X: 2}
	s.Mass[0], s.Mass[1] = 1, 3
	com := s.CenterOfMass()
	if math.Abs(com.X-1.5) > 1e-14 {
		t.Errorf("COM = %v", com)
	}
	s.Vel[0] = vec.V3{Y: 4}
	s.Recenter()
	if s.CenterOfMass().Norm() > 1e-14 {
		t.Error("Recenter did not zero the COM")
	}
	if s.MeanVelocity().Norm() > 1e-14 {
		t.Error("Recenter did not zero the mean velocity")
	}
}

func TestKineticEnergy(t *testing.T) {
	s := New(1)
	s.Mass[0] = 2
	s.Vel[0] = vec.V3{X: 3}
	if ke := s.KineticEnergy(); ke != 9 {
		t.Errorf("KE = %v, want 9", ke)
	}
}

func TestValidate(t *testing.T) {
	s := New(2)
	s.Mass[0], s.Mass[1] = 1, 1
	if err := s.Validate(); err != nil {
		t.Errorf("valid system rejected: %v", err)
	}
	s.Mass[1] = 0
	if err := s.Validate(); err == nil {
		t.Error("zero mass accepted")
	}
	for _, m := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s.Mass[1] = m
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "non-finite mass") {
			t.Errorf("mass %v: got %v, want a mass error", m, err)
		}
	}
	s.Mass[1] = 1
	s.Pos[0] = vec.V3{X: math.NaN()}
	if err := s.Validate(); err == nil {
		t.Error("NaN position accepted")
	}
}

// Property: ApplyOrderScratch with a random permutation preserves the
// multiset of (ID, mass) pairs.
func TestApplyOrderPreservesParticlesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(20)
		s := New(n)
		for i := range s.Mass {
			s.Mass[i] = 1 + r.Float64()
		}
		masses := map[int64]float64{}
		for i := range s.ID {
			masses[s.ID[i]] = s.Mass[i]
		}
		// Fisher-Yates permutation.
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		if err := s.ApplyOrderScratch(order, &PermScratch{}); err != nil {
			return false
		}
		for i := range s.ID {
			if masses[s.ID[i]] != s.Mass[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
