package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"repro/internal/nbody"
	"repro/internal/vec"
)

// forceSample is the size of the fixed particle sample the force-error
// check compares against a float64 direct sum.
const forceSample = 256

// checksum digests the complete dynamical state in its in-memory order:
// IDs, positions, velocities and accelerations, bit for bit. Two runs
// that are the same program agree on it exactly.
func checksum(s *nbody.System) string {
	h := sha256.New()
	var buf [8 + 9*8]byte
	for i := range s.Pos {
		binary.LittleEndian.PutUint64(buf[0:], uint64(s.ID[i]))
		putV3(buf[8:], s.Pos[i])
		putV3(buf[32:], s.Vel[i])
		putV3(buf[56:], s.Acc[i])
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func putV3(b []byte, v vec.V3) {
	binary.LittleEndian.PutUint64(b[0:], math.Float64bits(v.X))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(v.Y))
	binary.LittleEndian.PutUint64(b[16:], math.Float64bits(v.Z))
}

// forceErrRMS returns the relative RMS error of s.Acc against a float64
// direct sum, sqrt(sum |a - a_ref|^2 / sum |a_ref|^2), over the
// forceSample particles whose IDs are spread evenly through [0, N). IDs
// are assigned in generation order, so the sample is fixed by (workload,
// seed) however the tree has reordered the system. The error is
// normalised by the sample's RMS force, not particle by particle: a
// particle whose forces nearly cancel would otherwise decide the figure
// on its own (one seed in ten, on a sample this size).
func forceErrRMS(s *nbody.System, g, eps float64) (float64, error) {
	n := s.N()
	stride := max(1, n/forceSample)
	eps2 := eps * eps
	var errSum, refSum float64
	for i := range s.Pos {
		id := int(s.ID[i])
		if id%stride != 0 || id/stride >= forceSample {
			continue
		}
		pi := s.Pos[i]
		var ref vec.V3
		for j, pj := range s.Pos {
			d := pj.Sub(pi)
			r2 := d.Norm2()
			if r2 == 0 {
				continue
			}
			r2 += eps2
			ref = ref.MulAdd(g*s.Mass[j]/(r2*math.Sqrt(r2)), d)
		}
		errSum += s.Acc[i].Sub(ref).Norm2()
		refSum += ref.Norm2()
	}
	if refSum == 0 {
		return 0, fmt.Errorf("force sample is empty or force-free")
	}
	return math.Sqrt(errSum / refSum), nil
}

// checker accumulates the pass/fail verdicts of one run. Every check is
// deterministic in (workload, seed): a timing never decides correctness.
type checker struct {
	failures []string
}

func (c *checker) require(ok bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if ok {
		fmt.Printf("  ok    %s\n", msg)
		return
	}
	fmt.Printf("  FAIL  %s\n", msg)
	c.failures = append(c.failures, msg)
}

func (c *checker) correct() bool { return len(c.failures) == 0 }
