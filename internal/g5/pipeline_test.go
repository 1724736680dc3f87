package g5

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/nbody"
	"repro/internal/rng"
	"repro/internal/vec"
)

// referencePipeline is System.compute's pair loop as it stood before
// the fused kernel, verbatim apart from taking its inputs as arguments
// and rounding through roundMantissaRef: every i-point streams the whole
// j list, a coincident pair is skipped, six reference roundings per
// pair. pipeline must match it bit for bit.
func referencePipeline(iq, jq []vec.V3, mq, stuckFactor []float64, eps2 float64, pb, r2b uint, acc []vec.V3, pot []float64) {
	for i := range iq {
		pi := iq[i]
		var ax, ay, az, pp float64
		for j := range jq {
			dx := jq[j].X - pi.X
			dy := jq[j].Y - pi.Y
			dz := jq[j].Z - pi.Z
			r2 := dx*dx + dy*dy + dz*dz
			if r2 == 0 {
				continue // hardware emits zero for coincident points
			}
			r2 = roundMantissaRef(r2+eps2, r2b)
			inv := 1 / math.Sqrt(r2)
			m := mq[j]
			fpot := roundMantissaRef(m*inv, pb)
			ff := roundMantissaRef(m*inv/r2, pb)
			ax += roundMantissaRef(ff*dx, pb)
			ay += roundMantissaRef(ff*dy, pb)
			az += roundMantissaRef(ff*dz, pb)
			pp -= fpot
		}
		if stuckFactor != nil {
			f := stuckFactor[i%len(stuckFactor)]
			ax, ay, az, pp = ax*f, ay*f, az*f, pp*f
		}
		acc[i] = acc[i].Add(vec.V3{X: ax, Y: ay, Z: az})
		pot[i] += pp
	}
}

// referenceStage is the rest of the old functional model around that
// loop — quantise, round the masses, apply the fault plan — so a case can
// be driven through the real System.Compute and compared, and so the
// batch the pair loop is handed can go to each of its bodies.
func referenceStage(s *System, plan faultPlan, ipos, jpos []vec.V3, jmass []float64) (iq, jq []vec.V3, mq, stuckFactor []float64) {
	quantize := func(pos []vec.V3) []vec.V3 {
		out := make([]vec.V3, len(pos))
		for i, p := range pos {
			out[i].X, _ = s.grid.Quantize(p.X)
			out[i].Y, _ = s.grid.Quantize(p.Y)
			out[i].Z, _ = s.grid.Quantize(p.Z)
		}
		return out
	}
	iq, jq = quantize(ipos), quantize(jpos)
	mq = make([]float64, len(jmass))
	for j, m := range jmass {
		mq[j] = roundMantissaRef(m, s.hw.massBits)
	}
	if plan.flipJ >= 0 {
		if plan.flipMass {
			mq[plan.flipJ] = flipMantissaBit(mq[plan.flipJ], plan.flipBit)
		} else {
			p := &jq[plan.flipJ]
			switch plan.flipAxis {
			case 0:
				p.X = flipMantissaBit(p.X, plan.flipBit)
			case 1:
				p.Y = flipMantissaBit(p.Y, plan.flipBit)
			default:
				p.Z = flipMantissaBit(p.Z, plan.flipBit)
			}
		}
	}
	if len(plan.stuck) > 0 {
		stuckFactor = make([]float64, VirtualPipesPerBoard)
		for i := range stuckFactor {
			stuckFactor[i] = 1
		}
		share := 1 / float64(s.nActive)
		for _, sp := range plan.stuck {
			stuckFactor[sp.slot] *= 1 - share
		}
	}
	return iq, jq, mq, stuckFactor
}

// checkBodies adds the staged batch into copies of (acc, pot) through
// referencePipeline and through pipeline with every lane body this
// machine has, and wants every bit equal. Each body is named by
// argument, never by setting hostLanes: tests overlap. It
// returns the reference's sums and the iterations the AVX-512 body
// divided for (0 where it did not run).
func checkBodies(t *testing.T, iq, jq []vec.V3, mq, stuckFactor []float64, eps2 float64, pb, r2b uint, acc []vec.V3, pot []float64) (wantAcc []vec.V3, wantPot []float64, fallbacks int) {
	t.Helper()
	wantAcc, wantPot = append([]vec.V3(nil), acc...), append([]float64(nil), pot...)
	referencePipeline(iq, jq, mq, stuckFactor, eps2, pb, r2b, wantAcc, wantPot)
	for _, body := range laneChoices(t) {
		gotAcc, gotPot := append([]vec.V3(nil), acc...), append([]float64(nil), pot...)
		n := pipeline(iq, jq, mq, stuckFactor, eps2, pb, r2b, body, gotAcc, gotPot)
		if d := diffBits(gotAcc, gotPot, wantAcc, wantPot); d != "" {
			t.Fatalf("pipeline(%s): %s", laneNames[body], d)
		}
		if body == avx512Body {
			fallbacks = n
		}
	}
	return wantAcc, wantPot, fallbacks
}

// laneNames names the lane bodies in test and benchmark rows.
var laneNames = [...]string{portableBody: "portable", avx2Body: "avx2", avx512Body: "avx512"}

var logMissingLanes sync.Once

// laneChoices is the lane bodies this machine can run, fastest first:
// hostLanes and every body below it.
func laneChoices(t testing.TB) []laneBody {
	var bodies []laneBody
	for b := hostLanes; b > portableBody; b-- {
		bodies = append(bodies, b)
	}
	if hostLanes < avx512Body {
		logMissingLanes.Do(func() {
			t.Logf("no AVX-512 here: only %v of %v lane bodies are exercised", len(bodies)+1, len(laneNames))
		})
	}
	return append(bodies, portableBody)
}

// TestLaneBodies names the lane bodies this machine exercises. Run it
// with -v: a green run on a CPU without AVX-512 tested less.
func TestLaneBodies(t *testing.T) {
	var names []string
	for _, b := range laneChoices(t) {
		names = append(names, laneNames[b])
	}
	t.Logf("lane bodies tested: %v", names)
}

// pipelineCase is one point of the differential test's input space.
type pipelineCase struct {
	seed                       uint64
	ni, nj                     int
	pipeBits, r2Bits, massBits uint
	eps                        float64
	// i-points [runStart, runStart+runLen) are one point (clipped to ni).
	runStart, runLen int
	// twins makes every fourth i-point a copy of the point two before
	// it: identical but not adjacent, so it must not be reused.
	twins bool
	// coincident puts every third j on an i-point.
	coincident bool
	// masses: 0 plain; 1 adds ±0 and two subnormals; 2 adds ±0 and
	// ±MaxFloat64, which a mass budget below 52 bits rounds to ±Inf.
	masses int
	boards int
	fault  *FaultModel
}

var specialMasses = [3][]float64{
	1: {0, math.Copysign(0, -1), 5e-324, -2.2e-308},
	2: {0, math.Copysign(0, -1), math.MaxFloat64, -math.MaxFloat64},
}

// check drives the case through System.Compute twice (the second call
// runs on warm scratch and the injector's next plan) and compares every
// output bit with the reference model under the same plans; the same
// staged batches go through each pair-loop body by name (checkBodies).
func (c pipelineCase) check(t *testing.T) {
	t.Helper()
	r := rng.New(c.seed)
	point := func() vec.V3 {
		return vec.V3{X: r.Uniform(-40, 40), Y: r.Uniform(-40, 40), Z: r.Uniform(-40, 40)}
	}
	ipos := make([]vec.V3, c.ni)
	for i := range ipos {
		ipos[i] = point()
		if c.twins && i%4 == 3 {
			ipos[i] = ipos[i-2]
		}
	}
	for i := c.runStart; i < c.runStart+c.runLen && i < c.ni; i++ {
		ipos[i] = ipos[c.runStart]
	}
	jpos := make([]vec.V3, c.nj)
	jmass := make([]float64, c.nj)
	for j := range jpos {
		jpos[j] = point()
		jmass[j] = 1 + r.Float64()
		if c.coincident && j%3 == 0 {
			jpos[j] = ipos[j%c.ni]
		}
		if sp := specialMasses[c.masses]; sp != nil && j%2 == 1 {
			jmass[j] = sp[j/2%len(sp)]
		}
	}

	hw := paper
	hw.boards = c.boards
	hw.pipeBits, hw.r2Bits, hw.massBits = c.pipeBits, c.r2Bits, c.massBits
	sys, err := newSystem(hw, Config{Fault: c.fault})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetScale(-100, 100); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetEps(c.eps); err != nil {
		t.Fatal(err)
	}
	var twin *faultInjector // draws the plans sys will draw
	if c.fault != nil {
		twin = newFaultInjector(*c.fault)
	}

	acc, pot := make([]vec.V3, c.ni), make([]float64, c.ni)
	for i := range acc { // Compute adds into its outputs
		acc[i], pot[i] = point(), r.Float64()
	}
	wantAcc, wantPot := append([]vec.V3(nil), acc...), append([]float64(nil), pot...)
	for call := 0; call < 2; call++ {
		plan := faultPlan{flipJ: -1}
		if twin != nil {
			plan = twin.plan(c.nj, sys.activeBoardList())
		}
		iq, jq, mq, stuckFactor := referenceStage(sys, plan, ipos, jpos, jmass)
		wantAcc, wantPot, _ = checkBodies(t, iq, jq, mq, stuckFactor, sys.eps2, c.pipeBits, c.r2Bits, wantAcc, wantPot)
		if err := sys.Compute(ipos, jpos, jmass, acc, pot); err != nil {
			t.Fatal(err)
		}
		if d := diffBits(acc, pot, wantAcc, wantPot); d != "" {
			t.Fatalf("%+v\ncall %d, %s", c, call, d)
		}
	}
}

// diffBits describes the first output whose bit pattern differs from the
// reference's, or returns "".
func diffBits(acc []vec.V3, pot []float64, wantAcc []vec.V3, wantPot []float64) string {
	for i := range acc {
		got := [4]float64{acc[i].X, acc[i].Y, acc[i].Z, pot[i]}
		want := [4]float64{wantAcc[i].X, wantAcc[i].Y, wantAcc[i].Z, wantPot[i]}
		for k := range got {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				return fmt.Sprintf("i=%d, component %d: got %016x (%v), reference %016x (%v)",
					i, k, math.Float64bits(got[k]), got[k], math.Float64bits(want[k]), want[k])
			}
		}
	}
	return ""
}

var pipelineBitBudgets = []uint{1, 7, 12, 16, 51, 52, 60}

// TestPipelineMatchesReference is the differential test of the fused
// kernel: bit-identical to the old double loop over batch shapes, bit
// budgets, coincident pairs, special masses, ε = 0, runs of identical
// i-points of every length up to two passes at the start, middle and
// end of the batch, identical points that are not adjacent, fault plans
// with a flipped j word and several stuck slots, and the edges of the
// lane kernel's four-point blocks. Every staged batch goes through each
// pair-loop body as well as through Compute.
func TestPipelineMatchesReference(t *testing.T) {
	base := pipelineCase{seed: 1, ni: 59, nj: 9, pipeBits: 7, r2Bits: 16, massBits: 12, eps: 0.05, boards: 2}
	faults := &FaultModel{Seed: 5, JMemBitFlipRate: 1, StuckPipeRate: 1, FailBoard: 1, FailSlot: 58}

	t.Run("shapes", func(t *testing.T) {
		for _, ni := range []int{1, 59, 96, 97, 300} {
			for _, nj := range []int{1, 7, 8, 9, 620} {
				for k, bits := range [][3]uint{{7, 16, 12}, {52, 52, 52}, {1, 1, 1}} {
					c := base
					c.seed = uint64(1000*ni + nj)
					c.ni, c.nj = ni, nj
					c.pipeBits, c.r2Bits, c.massBits = bits[0], bits[1], bits[2]
					c.runStart, c.runLen = ni/3, 5
					c.twins, c.coincident = true, true
					c.masses = k
					if k == 1 {
						c.eps = 0
					}
					if k == 2 {
						c.boards, c.fault = 3, faults
					}
					c.check(t)
				}
			}
		}
	})
	t.Run("bits", func(t *testing.T) {
		for _, pb := range pipelineBitBudgets {
			for _, r2b := range pipelineBitBudgets {
				for _, mb := range pipelineBitBudgets {
					c := base
					c.seed = uint64(pb<<16 | r2b<<8 | mb)
					c.pipeBits, c.r2Bits, c.massBits = pb, r2b, mb
					c.runStart, c.runLen = 50, 9
					c.coincident = true
					c.masses = int(pb+r2b+mb) % 3
					c.fault = faults
					c.check(t)
				}
			}
		}
	})
	t.Run("runs", func(t *testing.T) {
		vp := VirtualPipesPerBoard
		for n := 1; n <= 2*vp; n++ {
			for _, start := range []int{0, (300 - n) / 2, 300 - n} {
				c := base
				c.seed = uint64(n)
				c.ni = 300
				c.runStart, c.runLen = start, n
				c.coincident = n%2 == 0
				c.boards, c.fault = 3, faults
				c.check(t)
			}
		}
	})
	// The edges of an eight-lane block, on batches built as the pair loop
	// is handed them: every block fill from one head to two blocks and a
	// head over; a guarded batch's shape, the probe in all 96 slots
	// behind the real points; runs of equal points behind lane 3 (the
	// AVX2 body's half) and behind lane 7, up to the first lane of the
	// next block; a source on the point of each lane of two blocks and on
	// the probe; one source, two, a long list; ε = 0; zero, subnormal and
	// infinite staged masses; a stuck factor on every slot past the first block
	// and on the slot of the head the padded lanes repeat. Sums are
	// ADDED, so acc and pot start non-zero.
	t.Run("lanes", func(t *testing.T) {
		const vp = 96
		stagedMasses := [3][]float64{1: specialMasses[1], 2: {0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}}
		k := 0
		for _, ni := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 58, 154} {
			for _, nj := range []int{1, 2, 2001} {
				for flags := 0; flags < 8; flags++ {
					probe, runs, eps2 := flags&1 != 0, flags&2 != 0, 0.0025
					if flags&4 != 0 {
						eps2 = 0
					}
					k++
					r := rng.New(uint64(k))
					point := func() vec.V3 {
						return vec.V3{X: r.Uniform(-40, 40), Y: r.Uniform(-40, 40), Z: r.Uniform(-40, 40)}
					}
					iq := make([]vec.V3, ni, ni+vp)
					for i := range iq {
						iq[i] = point()
						if runs && (i == 4 || i == 5 || i == 10 || i == 11 || i == 13) {
							iq[i] = iq[i-1] // runs behind heads 3 (lane 3), 9 (lane 7), 12 (lane 0 of the next block)
						}
					}
					if probe {
						p := point()
						for s := 0; s < vp; s++ {
							iq = append(iq, p)
						}
					}
					lastHead := len(iq) - 1
					for lastHead > 0 && iq[lastHead] == iq[lastHead-1] {
						lastHead--
					}
					stuckFactor := make([]float64, vp)
					for s := range stuckFactor {
						stuckFactor[s] = 1
						if s >= laneWidth {
							stuckFactor[s] = 1 - 1/float64(1+s%3)
						}
					}
					stuckFactor[lastHead%vp] = 0.5

					jq, mq := make([]vec.V3, nj), make([]float64, nj)
					for j := range jq {
						jq[j], mq[j] = point(), 1+r.Float64()
						if sp := stagedMasses[k%3]; sp != nil && j%2 == 1 {
							mq[j] = sp[j/2%len(sp)]
						}
					}
					for l := 0; l < 2*laneWidth; l++ { // both blocks' lanes, as far as they exist
						if l < len(iq) && 3*l < nj {
							jq[3*l] = iq[l]
						}
					}
					jq[nj-1] = iq[lastHead]

					bits := [][2]uint{{7, 16}, {52, 52}, {1, 1}}[k/3%3]
					acc, pot := make([]vec.V3, len(iq)), make([]float64, len(iq))
					for i := range acc {
						acc[i], pot[i] = point(), r.Float64()
					}
					checkBodies(t, iq, jq, mq, stuckFactor, eps2, bits[0], bits[1], acc, pot)
				}
			}
		}
	})
}

// TestCertifiedQuotient drives streamJLanes8's certificate where it must
// refuse — and, at its edge, where it must not — and counts through
// pipeline's fallbacks that it did, with every body bitwise the
// reference as ever (DESIGN.md §13 has the argument). A lane is refused
// when a rounding boundary lies within 32 words of its product quotient
// or when p = a·inv is NaN, ±Inf or subnormal, and one refused lane sends
// the whole iteration through VDIVPD. Each row holds eight heads.
func TestCertifiedQuotient(t *testing.T) {
	if hostLanes < avx512Body {
		t.Skip("no AVX-512 here: streamJLanes8 cannot run")
	}
	// unit puts six heads at distance 1 from a source at the origin and
	// two at distance 2: inv is 1 or ½ exactly, so the product quotient
	// is m·inv³ exactly and its word has m's low bits in every lane.
	unit := []vec.V3{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}, {Z: 1}, {Z: -1}, {X: 2}, {Z: -2}}
	one := math.Float64bits(1)
	for _, c := range []struct {
		name    string
		iq, jq  []vec.V3
		mq      []float64
		eps2    float64
		pb, r2b uint
		want    int // fallbacks
	}{
		// At 7 bits a boundary sits every 2⁴⁵ words: only a word within 32
		// of one is refused. m = 1 + 2⁻⁸ + 32 words is 32 words above the
		// tie, the lowest word the certificate takes; one word less is
		// refused.
		{name: "edge accepted", iq: unit, jq: []vec.V3{{}}, mq: []float64{math.Float64frombits(one + 1<<44 + 32)},
			pb: 7, r2b: 16},
		{name: "edge refused", iq: unit, jq: []vec.V3{{}}, mq: []float64{math.Float64frombits(one + 1<<44 + 31)},
			pb: 7, r2b: 16, want: 1},
		{name: "7-bit tie", iq: unit, jq: []vec.V3{{}, {}}, mq: []float64{1 + 0x1p-8, -1 - 0x1p-8},
			pb: 7, r2b: 16, want: 2},
		{name: "infinite masses", iq: unit, jq: []vec.V3{{}, {}, {X: 3}}, mq: []float64{math.Inf(1), math.Inf(-1), math.Inf(1)},
			pb: 7, r2b: 16, want: 3},
		// r² ≈ 2⁻²⁰ + ε² puts inv near 2¹⁰: p = m·inv² is subnormal for
		// each of these m, and the bits it lost would come back 2¹⁰ times
		// larger in q. At 7 bits only the class check can refuse them.
		{name: "subnormal p", jq: []vec.V3{{}, {}, {}, {}},
			iq: []vec.V3{{X: 0x1p-10}, {X: -0x1p-10}, {Y: 0x1p-10}, {Y: -0x1p-10}, {Z: 0x1p-10}, {Z: -0x1p-10}, {X: 0x1p-9}, {Z: -0x1p-9}},
			mq: []float64{5e-324, 3.3e-320, -7.77e-318, 1.2345e-315}, eps2: 1e-7, pb: 7, r2b: 16, want: 4},
		{name: "float64 pipeline", iq: unit, jq: []vec.V3{{}, {X: 0.5}, {Y: 3}}, mq: []float64{1, 2, 3},
			pb: 52, r2b: 52, want: 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, _, n := checkBodies(t, c.iq, c.jq, c.mq, nil, c.eps2, c.pb, c.r2b, make([]vec.V3, len(c.iq)), make([]float64, len(c.iq)))
			if n != c.want {
				t.Fatalf("%d fallbacks, want %d", n, c.want)
			}
		})
	}

	// Near the top of the budget a boundary lies within the margin of
	// most products: the fallback must run, often, and stay exact.
	t.Run("budgets 44-51", func(t *testing.T) {
		iq, jq, mq := plummerBatch(8, 600)
		for pb := uint(44); pb <= 51; pb++ {
			_, _, n := checkBodies(t, iq, jq, mq, nil, 1e-4, pb, 16, make([]vec.V3, len(iq)), make([]float64, len(iq)))
			if n < len(jq)/10 {
				t.Errorf("pipe budget %d: %d fallbacks in %d iterations", pb, n, len(jq))
			}
		}
	})

	// At the default budgets the certificate almost never refuses.
	t.Run("default config", func(t *testing.T) {
		iq, jq, mq := plummerBatch(400, 8192)
		_, _, n := checkBodies(t, iq, jq, mq, nil, 1e-4, PipeBits, R2Bits, make([]vec.V3, len(iq)), make([]float64, len(iq)))
		iters := len(iq) / laneWidth * len(jq)
		if float64(n) > 1e-5*float64(iters) {
			t.Fatalf("%d fallbacks in %d iterations", n, iters)
		}
		t.Logf("%d fallbacks in %d iterations", n, iters)
	})
}

// plummerBatch stages ni field points and nj sources of one Plummer
// sphere as the default System would hand them to pipeline: positions
// on its grid, masses at its mass budget.
func plummerBatch(ni, nj int) (iq, jq []vec.V3, mq []float64) {
	s := nbody.Plummer(ni+nj, 1, 1, 1, rng.New(28))
	grid := NewFixedGrid(-100, 100, PosBits)
	q := func(p vec.V3) vec.V3 {
		x, _ := grid.Quantize(p.X)
		y, _ := grid.Quantize(p.Y)
		z, _ := grid.Quantize(p.Z)
		return vec.V3{X: x, Y: y, Z: z}
	}
	for i, p := range s.Pos {
		if i < ni {
			iq = append(iq, q(p))
		} else {
			jq, mq = append(jq, q(p)), append(mq, RoundMantissa(s.Mass[i], MassBits))
		}
	}
	return iq, jq, mq
}

// FuzzPipelineMatchesReference walks the same space from fuzzed
// parameters, with finite inputs at the installation's budgets or the
// exact one: the low bit of pb, r2b and mb picks 52 bits.
func FuzzPipelineMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint16(59), uint16(9), uint8(0), uint8(0), uint8(0), uint16(3), uint16(96), uint8(0xFF))
	f.Add(uint64(2), uint16(1), uint16(1), uint8(1), uint8(0), uint8(1), uint16(0), uint16(0), uint8(0))
	f.Add(uint64(3), uint16(299), uint16(619), uint8(0), uint8(1), uint8(0), uint16(200), uint16(192), uint8(0x2B))
	// The exact pipe budget, where streamJLanes8's certificate always
	// refuses.
	f.Add(uint64(4), uint16(154), uint16(400), uint8(1), uint8(0), uint8(0), uint16(9), uint16(3), uint8(0x03))
	f.Add(uint64(5), uint16(61), uint16(300), uint8(1), uint8(1), uint8(1), uint16(60), uint16(96), uint8(0x98))
	budget := func(raw uint8, paper uint) uint {
		if raw&1 != 0 {
			return 52
		}
		return paper
	}
	f.Fuzz(func(t *testing.T, seed uint64, ni, nj uint16, pb, r2b, mb uint8, runStart, runLen uint16, flags uint8) {
		c := pipelineCase{
			seed: seed, ni: 1 + int(ni)%300, nj: 1 + int(nj)%620,
			pipeBits: budget(pb, PipeBits), r2Bits: budget(r2b, R2Bits), massBits: budget(mb, MassBits),
			runLen:     int(runLen) % 200,
			twins:      flags&1 != 0,
			coincident: flags&2 != 0,
			masses:     int(flags>>2) % 3,
			boards:     1 + int(flags>>4)%3,
		}
		c.runStart = int(runStart) % c.ni
		if flags&64 == 0 {
			c.eps = 0.05
		}
		if flags&128 != 0 {
			c.fault = &FaultModel{Seed: seed, JMemBitFlipRate: 0.5, StuckPipeRate: 0.5,
				FailBoard: 1, FailSlot: int(runStart) % 96}
		}
		c.check(t)
	})
}
