package g5

import "repro/internal/vec"

// hostLanes is the lane body this machine runs, read once at init;
// pipeline's only machine fork.
var hostLanes = func() laneBody {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	var ebx7, xcr0 uint32
	if maxLeaf >= 7 {
		_, ebx7, _, _ = cpuid(7, 0)
	}
	if ecx1&cpuOSXSAVE != 0 { // XGETBV faults without it
		xcr0, _ = xgetbv()
	}
	return pickLanes(maxLeaf, ecx1, ebx7, xcr0)
}()

// CPUID leaf 1 ECX, leaf 7 EBX and XCR0 bits pickLanes reads.
const (
	cpuOSXSAVE  = 1 << 27
	cpuAVX      = 1 << 28
	cpuAVX2     = 1 << 5
	cpuAVX512F  = 1 << 16
	cpuAVX512DQ = 1 << 17
	xcr0YMM     = 1<<1 | 1<<2                  // XMM and YMM state
	xcr0ZMM     = xcr0YMM | 1<<5 | 1<<6 | 1<<7 // plus opmask, ZMM0–15 upper halves, ZMM16–31
)

// pickLanes is the lane body a CPU with these CPUID and XCR0 words can
// run: streamJLanes8 needs AVX-512F and DQ with the opmask and ZMM state
// saved by the OS, streamJLanes4 AVX2 with the YMM state; neither without
// OSXSAVE.
func pickLanes(maxLeaf, ecx1, ebx7, xcr0 uint32) laneBody {
	if maxLeaf < 7 || ecx1&(cpuOSXSAVE|cpuAVX) != cpuOSXSAVE|cpuAVX ||
		xcr0&xcr0YMM != xcr0YMM || ebx7&cpuAVX2 == 0 {
		return portableBody
	}
	if ebx7&(cpuAVX512F|cpuAVX512DQ) == cpuAVX512F|cpuAVX512DQ && xcr0&xcr0ZMM == xcr0ZMM {
		return avx512Body
	}
	return avx2Body
}

// streamJLanes4 is streamJ on the four i-points of b from lane on (0 or
// laneWidth/2), one per YMM lane: it sets those lanes' sums to each
// point's over (jq, mq), bit for bit streamJ's. len(mq) >= len(jq).
// Implemented in lanes_amd64.s.
//
//go:noescape
func streamJLanes4(b *laneBlock, lane int, jq []vec.V3, mq []float64)

// streamJLanes8 is streamJ on the eight i-points of b, one per ZMM lane,
// with ff's quotient certified instead of divided (DESIGN.md §13): the
// same sums bit for bit, and b.fallbacks grows by the j it had to divide
// for. len(mq) >= len(jq). Implemented in lanes_amd64.s.
//
//go:noescape
func streamJLanes8(b *laneBlock, jq []vec.V3, mq []float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
