package nbody

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/morton"
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

// randomSystem returns n particles with every array filled from r, and
// a distinct key per particle.
func randomSystem(r *rng.Source, n int) (*System, []morton.Key) {
	s := New(n)
	keys := make([]morton.Key, n)
	for i := 0; i < n; i++ {
		s.Pos[i] = vec.V3{X: r.Normal(), Y: r.Normal(), Z: r.Normal()}
		s.Vel[i] = vec.V3{X: r.Normal(), Y: r.Normal(), Z: r.Normal()}
		s.Acc[i] = vec.V3{X: r.Normal(), Y: r.Normal(), Z: r.Normal()}
		s.Mass[i], s.Pot[i] = r.Float64(), r.Normal()
		s.ID[i] = int64(r.Uint64())
		keys[i] = morton.Key(r.Uint64() >> 1)
	}
	return s, keys
}

// gatherRef is the reference permutation: fresh arrays with new
// position k holding previous particle order[k].
func gatherRef(s *System, keys []morton.Key, order []int32) (*System, []morton.Key) {
	g := New(len(order))
	gk := make([]morton.Key, len(order))
	for k, idx := range order {
		g.Pos[k], g.Vel[k], g.Acc[k] = s.Pos[idx], s.Vel[idx], s.Acc[idx]
		g.Mass[k], g.Pot[k], g.ID[k] = s.Mass[idx], s.Pot[idx], s.ID[idx]
		gk[k] = keys[idx]
	}
	return g, gk
}

// sameBits reports the first particle at which the two systems or key
// arrays differ in any bit, or -1.
func sameBits(a *System, ak []morton.Key, b *System, bk []morton.Key) int {
	if a.N() != b.N() || len(ak) != len(bk) {
		return 0
	}
	f := math.Float64bits
	for i := range a.Pos {
		if a.Pos[i] != b.Pos[i] || a.Vel[i] != b.Vel[i] || a.Acc[i] != b.Acc[i] ||
			f(a.Mass[i]) != f(b.Mass[i]) || f(a.Pot[i]) != f(b.Pot[i]) || a.ID[i] != b.ID[i] {
			return i
		}
	}
	for i := range ak {
		if ak[i] != bk[i] {
			return i
		}
	}
	return -1
}

// Permutation kinds of the table and fuzz tests.
const (
	permIdentity = iota
	permOneCycle
	permTwoCycles
	permRandom
	permMostlyFixed
	permKinds
)

// makeOrder returns a permutation of [0, n) of the given kind.
func makeOrder(r *rng.Source, n, kind int) []int32 {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	switch kind {
	case permOneCycle: // k ← k+1: one cycle through every particle
		for i := range order {
			order[i] = int32((i + 1) % n)
		}
	case permTwoCycles: // swap neighbours: n/2 cycles of length 2
		for i := 0; i+1 < n; i += 2 {
			order[i], order[i+1] = order[i+1], order[i]
		}
	case permRandom:
		for i := n - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
	case permMostlyFixed: // a few swaps, as between two steps' sorts
		for k := 0; n > 0 && k < n/16+1; k++ {
			i, j := r.Intn(n), r.Intn(n)
			order[i], order[j] = order[j], order[i]
		}
	}
	return order
}

// checkApplyOrder applies order in place through scr and compares every
// array and the keys, bit for bit, with the gather reference.
func checkApplyOrder(t *testing.T, s *System, keys []morton.Key, order []int32, scr *PermScratch) {
	t.Helper()
	want, wantKeys := gatherRef(s, keys, order)
	if err := s.ApplyOrderScratch(order, keys, scr); err != nil {
		t.Fatal(err)
	}
	if i := sameBits(s, keys, want, wantKeys); i >= 0 {
		t.Fatalf("N = %d: particle %d differs from the gather reference", len(order), i)
	}
}

func TestApplyOrderScratch(t *testing.T) {
	names := [permKinds]string{"identity", "one-cycle", "two-cycles", "random", "mostly-fixed"}
	for kind, name := range names {
		for _, n := range []int{0, 1, 2, 3, 8, 257, 4096} {
			t.Run(fmt.Sprintf("%s/N=%d", name, n), func(t *testing.T) {
				r := rng.New(uint64(7*n + kind))
				s, keys := randomSystem(r, n)
				checkApplyOrder(t, s, keys, makeOrder(r, n, kind), &PermScratch{})
			})
		}
	}

	// One scratch reused across calls of every kind and of growing and
	// shrinking N permutes as the reference does, and holds no
	// particle-sized array but its marks.
	t.Run("reused-scratch", func(t *testing.T) {
		r := rng.New(5)
		var scr PermScratch
		for step, n := range []int{257, 100, 300, 300, 300, 64} {
			s, keys := randomSystem(r, n)
			checkApplyOrder(t, s, keys, makeOrder(r, n, step%permKinds), &scr)
		}
		v := reflect.ValueOf(scr)
		for f := 0; f < v.NumField(); f++ {
			a := v.Field(f)
			if a.Kind() != reflect.Slice {
				continue
			}
			if a.Type() != reflect.TypeOf([]bool(nil)) {
				t.Errorf("scratch field %s is a %v: no spare particle array may be kept",
					v.Type().Field(f).Name, a.Type())
			}
			if a.Cap() > 300 {
				t.Errorf("marks %s have capacity %d > largest N = 300", v.Type().Field(f).Name, a.Cap())
			}
		}
	})
}

func TestApplyOrderRejectsBadPermutation(t *testing.T) {
	const n = 5
	for _, c := range []struct {
		name  string
		order []int32
		keys  int
	}{
		{"duplicate", []int32{1, 0, 0, 3, 4}, n},
		{"duplicate-last", []int32{4, 3, 2, 1, 4}, n},
		{"short", []int32{1, 0, 2, 3}, n},
		{"long", []int32{1, 0, 2, 3, 4, 5}, n},
		{"out-of-range", []int32{1, 0, 2, 3, 5}, n},
		{"negative", []int32{1, 0, 2, 3, -1}, n},
		{"short-keys", []int32{1, 0, 2, 3, 4}, n - 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, keys := randomSystem(rng.New(3), n)
			keys = keys[:c.keys]
			want, wantKeys := s.Clone(), append([]morton.Key(nil), keys...)
			if err := s.ApplyOrderScratch(c.order, keys, &PermScratch{}); err == nil {
				t.Fatalf("order %v with %d keys accepted", c.order, c.keys)
			}
			if i := sameBits(s, keys, want, wantKeys); i >= 0 {
				t.Fatalf("rejected order moved particle %d", i)
			}
		})
	}
}

// FuzzApplyOrder: any permutation kind at any N permutes in place as the
// gather reference does, and an order with one entry duplicated is
// refused with every array untouched.
func FuzzApplyOrder(f *testing.F) {
	for kind := uint8(0); kind < 2*permKinds; kind++ {
		f.Add(uint64(kind), uint16(1+13*kind), kind)
	}
	f.Add(uint64(1), uint16(0), uint8(permRandom))
	f.Add(uint64(2), uint16(1), uint8(permOneCycle))
	f.Add(uint64(3), uint16(4096), uint8(permRandom))
	f.Fuzz(func(t *testing.T, seed uint64, n16 uint16, kind uint8) {
		n := int(n16 % 5000)
		r := rng.New(seed)
		s, keys := randomSystem(r, n)
		order := makeOrder(r, n, int(kind%permKinds))
		if kind/permKinds%2 == 0 || n < 2 {
			checkApplyOrder(t, s, keys, order, &PermScratch{})
			return
		}
		i, j := r.Intn(n), r.Intn(n-1)
		if j >= i {
			j++
		}
		order[i] = order[j]
		want, wantKeys := s.Clone(), append([]morton.Key(nil), keys...)
		if err := s.ApplyOrderScratch(order, keys, &PermScratch{}); err == nil {
			t.Fatal("order with a duplicate accepted")
		}
		if k := sameBits(s, keys, want, wantKeys); k >= 0 {
			t.Fatalf("rejected order moved particle %d", k)
		}
	})
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
		order := makeOrder(r, n, permRandom)
		if err := s.ApplyOrderScratch(order, make([]morton.Key, n), &PermScratch{}); err != nil {
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
