package fft

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/rng"
)

func TestNewGrid3RejectsNonPow2(t *testing.T) {
	if _, err := NewGrid3(6); err == nil {
		t.Error("NewGrid3(6) should fail")
	}
}

func TestGrid3Indexing(t *testing.T) {
	g, err := NewGrid3(4)
	if err != nil {
		t.Fatal(err)
	}
	g.Set(1, 2, 3, 5+6i)
	if g.At(1, 2, 3) != 5+6i {
		t.Error("Set/At mismatch")
	}
	if g.Idx(1, 2, 3) != (1*4+2)*4+3 {
		t.Errorf("Idx = %d", g.Idx(1, 2, 3))
	}
}

func TestGrid3RoundTrip(t *testing.T) {
	g, _ := NewGrid3(8)
	r := rng.New(2)
	orig := make([]complex128, len(g.Data))
	for i := range g.Data {
		g.Data[i] = complex(r.Normal(), r.Normal())
		orig[i] = g.Data[i]
	}
	g.Forward()
	g.Inverse()
	for i := range g.Data {
		if cmplx.Abs(g.Data[i]-orig[i]) > 1e-9 {
			t.Fatalf("3D round trip failed at %d", i)
		}
	}
}

func TestGrid3SingleMode(t *testing.T) {
	// A single Fourier mode on the grid must inverse-transform to the
	// corresponding plane wave.
	const n = 8
	g, _ := NewGrid3(n)
	kx, ky, kz := 1, 2, 3
	g.Set(kx, ky, kz, complex(float64(n*n*n), 0))
	g.Inverse()
	for ix := 0; ix < n; ix++ {
		for iy := 0; iy < n; iy++ {
			for iz := 0; iz < n; iz++ {
				phase := 2 * math.Pi * (float64(kx*ix) + float64(ky*iy) + float64(kz*iz)) / n
				s, c := math.Sincos(phase)
				want := complex(c, s)
				if cmplx.Abs(g.At(ix, iy, iz)-want) > 1e-9 {
					t.Fatalf("plane wave mismatch at (%d,%d,%d): %v vs %v",
						ix, iy, iz, g.At(ix, iy, iz), want)
				}
			}
		}
	}
}

func TestFreqIndex(t *testing.T) {
	cases := []struct{ i, n, want int }{
		{0, 8, 0}, {1, 8, 1}, {3, 8, 3}, {4, 8, -4}, {5, 8, -3}, {7, 8, -1},
	}
	for _, c := range cases {
		if got := FreqIndex(c.i, c.n); got != c.want {
			t.Errorf("FreqIndex(%d,%d) = %d, want %d", c.i, c.n, got, c.want)
		}
	}
}

func TestConjIndex(t *testing.T) {
	for _, n := range []int{4, 8} {
		for i := 0; i < n; i++ {
			c := ConjIndex(i, n)
			if (i+c)%n != 0 {
				t.Errorf("ConjIndex(%d,%d)=%d is not -i mod n", i, n, c)
			}
			if ConjIndex(c, n) != i {
				t.Errorf("ConjIndex not involutive at %d", i)
			}
		}
	}
}

func TestEnforceHermitianGivesRealField(t *testing.T) {
	const n = 8
	g, _ := NewGrid3(n)
	r := rng.New(3)
	for i := range g.Data {
		g.Data[i] = complex(r.Normal(), r.Normal())
	}
	g.EnforceHermitian()
	// Verify symmetry directly.
	for ix := 0; ix < n; ix++ {
		for iy := 0; iy < n; iy++ {
			for iz := 0; iz < n; iz++ {
				a := g.At(ix, iy, iz)
				b := g.At(ConjIndex(ix, n), ConjIndex(iy, n), ConjIndex(iz, n))
				if cmplx.Abs(a-cmplx.Conj(b)) > 1e-12 {
					t.Fatalf("not Hermitian at (%d,%d,%d)", ix, iy, iz)
				}
			}
		}
	}
	g.Inverse()
	for i, v := range g.Data {
		if math.Abs(imag(v)) > 1e-10 {
			t.Fatalf("inverse of Hermitian grid has imaginary part %v at %d", imag(v), i)
		}
	}
}
