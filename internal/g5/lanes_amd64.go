package g5

import "repro/internal/vec"

// haveLanes reports that streamJLanes can run here: the CPU has AVX2 and
// the OS saves the YMM state. Read once; pipeline's only machine fork.
var haveLanes = func() bool {
	const osxsave, avx, avx2 = 1 << 27, 1 << 28, 1 << 5
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}()

// streamJLanes is streamJ on the four i-points of b, one per YMM lane:
// it sets b's sums to each point's over (jq, mq), bit for bit streamJ's.
// len(mq) >= len(jq). Implemented in lanes_amd64.s.
//
//go:noescape
func streamJLanes(b *laneBlock, jq []vec.V3, mq []float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
