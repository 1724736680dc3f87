package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"repro/internal/cosmo"
	"repro/internal/nbody"
	"repro/internal/vec"
)

// forceFNV hashes the Acc/Pot bit patterns in particle-ID order, so two
// runs hash equal exactly when every force component is ==.
func forceFNV(s *nbody.System) string {
	byID := make([]int, s.N())
	for i, id := range s.ID {
		byID[id] = i
	}
	h := fnv.New64a()
	var b [8]byte
	for _, i := range byID {
		for _, f := range [4]float64{s.Acc[i].X, s.Acc[i].Y, s.Acc[i].Z, s.Pot[i]} {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestOriginalWalkMatchesSeed pins the single per-particle walk to the
// three it replaced. testdata/original_walk.json was recorded at the
// parent commit from its three forks — forces accumulated inside the
// walk, forces from a built list handed to HostEngine, and the
// count-only walk. The two force forks hashed equal there, and the
// survivor must reproduce that hash and every counter.
func TestOriginalWalkMatchesSeed(t *testing.T) {
	raw, err := os.ReadFile("testdata/original_walk.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden []struct {
		Name          string  `json:"name"`
		N             int     `json:"n"`
		Theta         float64 `json:"theta"`
		Eps           float64 `json:"eps"`
		Interactions  int64   `json:"interactions"`
		ListSum       int64   `json:"list_sum"`
		MinList       int     `json:"min_list"`
		MaxList       int     `json:"max_list"`
		NodesVisited  int64   `json:"nodes_visited"`
		CountOriginal int64   `json:"count_original"`
		FNVWalk       string  `json:"force_fnv_walk"`
		FNVOnEngine   string  `json:"force_fnv_on_engine"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	ps, err := cosmo.NewPowerSpectrum(cosmo.SCDM(), 1, 0.67)
	if err != nil {
		t.Fatal(err)
	}
	sphere, err := cosmo.GenerateSphere(cosmo.ICParams{
		Power: ps, GridN: 8, BoxMpc: 100, RadiusMpc: 50, ZInit: 24, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	systems := map[string]*nbody.System{
		"plummer1500": plummer(1500, 31),
		"cosmo_grid8": sphere.System,
	}
	if len(golden) != len(systems) {
		t.Fatalf("golden has %d cases, want %d", len(golden), len(systems))
	}
	for _, g := range golden {
		t.Run(g.Name, func(t *testing.T) {
			model := systems[g.Name]
			if model == nil || model.N() != g.N {
				t.Fatalf("no system of N=%d for golden case %q", g.N, g.Name)
			}
			opt := Options{Theta: g.Theta, G: 1, Eps: g.Eps}
			s := model.Clone()
			st, err := New(opt, nil).ComputeForcesOriginal(s)
			if err != nil {
				t.Fatal(err)
			}
			count, err := New(opt, nil).CountOriginal(model.Clone())
			if err != nil {
				t.Fatal(err)
			}
			if st.Interactions != g.Interactions || st.ListSum != g.ListSum ||
				st.MinList != g.MinList || st.MaxList != g.MaxList || st.NodesVisited != g.NodesVisited {
				t.Errorf("stats moved: %v, golden interactions=%d listSum=%d min=%d max=%d nodes=%d",
					st, g.Interactions, g.ListSum, g.MinList, g.MaxList, g.NodesVisited)
			}
			if count != g.CountOriginal {
				t.Errorf("CountOriginal = %d, golden %d", count, g.CountOriginal)
			}
			if got := forceFNV(s); got != g.FNVWalk || got != g.FNVOnEngine {
				t.Errorf("force bits moved: fnv %s, golden walk %s / on-engine %s", got, g.FNVWalk, g.FNVOnEngine)
			}
		})
	}
}

// TestOriginalOnEngineMatchesWalk: the lists the per-particle walk hands
// to the engine carry the whole calculation, so any conforming engine
// gives the same bits. The scalar reference loop (the arithmetic the
// retired in-walk accumulation performed) must equal the default SoA
// host engine under ==, with the same counters, and the count-only
// branch must agree with both.
func TestOriginalOnEngineMatchesWalk(t *testing.T) {
	s := plummer(1500, 31)
	sA, sB := s.Clone(), s.Clone()
	opt := Options{Theta: 0.75, G: 1, Eps: 0.01}

	stA, err := New(opt, nil).ComputeForcesOriginal(sA)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := New(opt, &scalarRefEngine{g: 1, eps: 0.01}).ComputeForcesOriginal(sB)
	if err != nil {
		t.Fatal(err)
	}
	count, err := New(opt, nil).CountOriginal(s.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if stA.Interactions != stB.Interactions || stA.Interactions != count {
		t.Errorf("interaction counts differ: %d vs %d vs count-only %d", stA.Interactions, stB.Interactions, count)
	}
	if stA.MinList != stB.MinList || stA.MaxList != stB.MaxList || stA.NodesVisited != stB.NodesVisited {
		t.Errorf("walk statistics differ: %v vs %v", stA, stB)
	}
	accByID := make(map[int64]vec.V3)
	potByID := make(map[int64]float64)
	for i := range sA.Pos {
		accByID[sA.ID[i]] = sA.Acc[i]
		potByID[sA.ID[i]] = sA.Pot[i]
	}
	for i := range sB.Pos {
		id := sB.ID[i]
		if sB.Acc[i] != accByID[id] || sB.Pot[i] != potByID[id] {
			t.Fatalf("forces differ at ID %d: %v/%v vs %v/%v", id, sB.Acc[i], sB.Pot[i], accByID[id], potByID[id])
		}
	}
}

func TestOriginalOnEngineDirectLimit(t *testing.T) {
	s := plummer(200, 32)
	ref := s.Clone()
	nbody.DirectForces(ref, 1, 0.02)
	refByID := make(map[int64]vec.V3)
	for i := range ref.Pos {
		refByID[ref.ID[i]] = ref.Acc[i]
	}
	tc := New(Options{Theta: 1e-9, G: 1, Eps: 0.02}, nil)
	if _, err := tc.ComputeForcesOriginal(s); err != nil {
		t.Fatal(err)
	}
	for i := range s.Pos {
		want := refByID[s.ID[i]]
		if s.Acc[i].Sub(want).Norm() > 1e-10*(1+want.Norm()) {
			t.Fatalf("θ→0 mismatch at ID %d", s.ID[i])
		}
	}
}

// TestOriginalOnEngineEmptyFails: an empty system is rejected before the
// engine sees a batch.
func TestOriginalOnEngineEmptyFails(t *testing.T) {
	eng := &CountEngine{}
	if _, err := New(Options{}, eng).ComputeForcesOriginal(nbody.New(0)); err == nil {
		t.Error("empty system accepted")
	}
	if eng.Interactions() != 0 {
		t.Errorf("engine saw %d interactions from an empty system", eng.Interactions())
	}
}
