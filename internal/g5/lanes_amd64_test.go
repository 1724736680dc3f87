package g5

import "testing"

// TestPickLanes pins the CPU choice: a body runs only where the CPU has
// its instructions and the OS saves the registers it uses.
func TestPickLanes(t *testing.T) {
	const (
		ecx     = cpuOSXSAVE | cpuAVX
		ebxAVX2 = cpuAVX2
		ebx512  = cpuAVX2 | cpuAVX512F | cpuAVX512DQ
	)
	for _, c := range []struct {
		name                      string
		maxLeaf, ecx1, ebx7, xcr0 uint32
		want                      laneBody
	}{
		{"no leaf 7", 6, ecx, ebx512, xcr0ZMM, portableBody},
		{"no OSXSAVE", 13, cpuAVX, ebx512, 0, portableBody},
		{"AVX2 without OS YMM state", 13, ecx, ebxAVX2, 1 << 1, portableBody},
		{"AVX2", 13, ecx, ebxAVX2, xcr0YMM, avx2Body},
		{"AVX-512F without DQ", 13, ecx, cpuAVX2 | cpuAVX512F, xcr0ZMM, avx2Body},
		{"XCR0 bits 5-7 clear", 13, ecx, ebx512, xcr0YMM, avx2Body},
		{"XCR0 without ZMM16-31", 13, ecx, ebx512, xcr0ZMM &^ (1 << 7), avx2Body},
		{"full AVX-512", 13, ecx, ebx512, xcr0ZMM, avx512Body},
	} {
		if got := pickLanes(c.maxLeaf, c.ecx1, c.ebx7, c.xcr0); got != c.want {
			t.Errorf("%s: pickLanes = %s, want %s", c.name, laneNames[got], laneNames[c.want])
		}
	}
}
