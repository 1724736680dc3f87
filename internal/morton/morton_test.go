package morton

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/vec"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := [][3]uint32{
		{0, 0, 0},
		{1, 2, 3},
		{maxCoord, maxCoord, maxCoord},
		{maxCoord, 0, 12345},
	}
	for _, c := range cases {
		k := Encode(c[0], c[1], c[2])
		x, y, z := k.Decode()
		if x != c[0] || y != c[1] || z != c[2] {
			t.Errorf("round trip (%d,%d,%d) -> (%d,%d,%d)", c[0], c[1], c[2], x, y, z)
		}
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(x, y, z uint32) bool {
		x &= maxCoord
		y &= maxCoord
		z &= maxCoord
		gx, gy, gz := Encode(x, y, z).Decode()
		return gx == x && gy == y && gz == z
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeOrderPreservation(t *testing.T) {
	// Increasing one coordinate with others fixed increases the key.
	k1 := Encode(5, 10, 20)
	k2 := Encode(6, 10, 20)
	if k2 <= k1 {
		t.Error("key not monotone in x")
	}
	k3 := Encode(5, 11, 20)
	if k3 <= k1 {
		t.Error("key not monotone in y")
	}
}

func TestQuantizeClamps(t *testing.T) {
	box := vec.NewBox(vec.V3{}, vec.V3{X: 1, Y: 1, Z: 1})
	ix, iy, iz := Quantize(vec.V3{X: -5, Y: 2, Z: 0.5}, box)
	if ix != 0 {
		t.Errorf("below-min not clamped: %d", ix)
	}
	if iy != maxCoord {
		t.Errorf("above-max not clamped: %d", iy)
	}
	if iz == 0 || iz == maxCoord {
		t.Errorf("interior point at boundary: %d", iz)
	}
}

func TestQuantizeDegenerateBox(t *testing.T) {
	box := vec.NewBox(vec.V3{X: 1, Y: 1, Z: 1}, vec.V3{X: 1, Y: 1, Z: 1})
	ix, iy, iz := Quantize(vec.V3{X: 1, Y: 1, Z: 1}, box)
	if ix != 0 || iy != 0 || iz != 0 {
		t.Errorf("degenerate box quantise = (%d,%d,%d)", ix, iy, iz)
	}
}

// Property: the top-level Morton octant equals the geometric octant of
// the bounding cube. This is the invariant that lets the tree build use
// sorted keys for splitting.
func TestOctantMatchesGeometryProperty(t *testing.T) {
	box := vec.NewBox(vec.V3{X: -1, Y: -1, Z: -1}, vec.V3{X: 1, Y: 1, Z: 1})
	f := func(seed uint64) bool {
		r := rng.New(seed)
		p := vec.V3{X: r.Uniform(-1, 1), Y: r.Uniform(-1, 1), Z: r.Uniform(-1, 1)}
		k := KeyFor(p, box)
		return k.OctantAtLevel(0) == box.Octant(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: second-level Morton octant equals the geometric octant in
// the first-level child box.
func TestOctantLevel1MatchesGeometry(t *testing.T) {
	box := vec.NewBox(vec.V3{}, vec.V3{X: 8, Y: 8, Z: 8})
	r := rng.New(77)
	for i := 0; i < 500; i++ {
		p := vec.V3{X: r.Uniform(0, 8), Y: r.Uniform(0, 8), Z: r.Uniform(0, 8)}
		k := KeyFor(p, box)
		child := box.Child(box.Octant(p))
		if k.OctantAtLevel(1) != child.Octant(p) {
			t.Fatalf("level-1 octant mismatch for %v: morton %d geo %d",
				p, k.OctantAtLevel(1), child.Octant(p))
		}
	}
}

func TestSortOrder(t *testing.T) {
	keys := []Key{5, 1, 3, 1, 9}
	order := SortOrder(keys)
	sorted := make([]Key, len(keys))
	for i, idx := range order {
		sorted[i] = keys[idx]
	}
	if !sort.SliceIsSorted(sorted, func(a, b int) bool { return sorted[a] < sorted[b] }) {
		t.Errorf("not sorted: %v", sorted)
	}
	// Stability: the two equal keys (indices 1 and 3) keep input order.
	if order[0] != 1 || order[1] != 3 {
		t.Errorf("stable sort violated: %v", order)
	}
}

func TestKeys(t *testing.T) {
	box := vec.NewBox(vec.V3{}, vec.V3{X: 1, Y: 1, Z: 1})
	pos := []vec.V3{{X: 0.1, Y: 0.1, Z: 0.1}, {X: 0.9, Y: 0.9, Z: 0.9}}
	keys := KeysInto(nil, pos, box)
	if len(keys) != 2 {
		t.Fatal("wrong length")
	}
	if keys[0] >= keys[1] {
		t.Error("corner ordering wrong")
	}
}

// TestSortOrderRadixMatchesComparison checks both index types of the
// radix sort against the comparison sort, on random keys with runs of
// equal keys (the stability the build's determinism rests on) and
// through reused ping-pong buffers.
func TestSortOrderRadixMatchesComparison(t *testing.T) {
	t.Run("int", func(t *testing.T) { radixMatchesComparison[int](t) })
	t.Run("int32", func(t *testing.T) { radixMatchesComparison[int32](t) })
}

func radixMatchesComparison[I int | int32](t *testing.T) {
	r := rng.New(55)
	var a, b []I
	for trial := 0; trial < 12; trial++ {
		n := 1 + r.Intn(2000)
		keys := make([]Key, n)
		for i := range keys {
			keys[i] = Key(r.Uint64() >> 1)
		}
		switch trial % 3 {
		case 0: // isolated duplicates
			for i := 0; i+1 < n; i += 7 {
				keys[i+1] = keys[i]
			}
		case 1: // runs of equal keys, up to 64 long
			for i := 0; i < n; {
				run := 1 + r.Intn(64)
				for j := i + 1; j < min(i+run, n); j++ {
					keys[j] = keys[i]
				}
				i += run
			}
		case 2: // few distinct keys: long runs scattered through the input
			for i := range keys {
				keys[i] = keys[r.Intn(4)]
			}
		}
		want := SortOrder(keys)
		got := SortOrderRadixInto(keys, a, b)
		for i := range want {
			if int(got[i]) != want[i] {
				t.Fatalf("trial %d: radix differs from comparison at %d: %d vs %d",
					trial, i, got[i], want[i])
			}
		}
		// Reuse the buffers in the next trial, as the builder does.
		if len(a) < n {
			a, b = make([]I, n), make([]I, n)
		}
	}
}

func TestSortOrderRadixEdgeCases(t *testing.T) {
	t.Run("int", radixEdgeCases[int])
	t.Run("int32", radixEdgeCases[int32])
}

func radixEdgeCases[I int | int32](t *testing.T) {
	if got := SortOrderRadixInto[I](nil, nil, nil); len(got) != 0 {
		t.Errorf("nil keys: %v", got)
	}
	if got := SortOrderRadixInto[I]([]Key{42}, nil, nil); len(got) != 1 || got[0] != 0 {
		t.Errorf("single key: %v", got)
	}
	// All-equal keys keep input order (stability).
	got := SortOrderRadixInto[I]([]Key{7, 7, 7, 7}, nil, nil)
	for i, idx := range got {
		if int(idx) != i {
			t.Errorf("equal keys reordered: %v", got)
		}
	}
}
