package snapio

import (
	"bytes"
	"testing"

	"repro/internal/nbody"
	"repro/internal/rng"
)

// FuzzRead: snapshot parsing must never panic on corrupt input — it
// must return an error or a valid system. Restart files travel between
// machines; a truncated or bit-flipped file must fail cleanly.
func FuzzRead(f *testing.F) {
	// Seed corpus: a valid snapshot, truncations, and bit flips.
	s := nbody.Plummer(20, 1, 1, 1, rng.New(1))
	var buf bytes.Buffer
	if err := Write(&buf, Header{Time: 1, Step: 2, Scale: 0.5}, s); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:8])
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("garbage that is not a snapshot"))
	flipped := append([]byte(nil), valid...)
	flipped[10] ^= 0xff
	f.Add(flipped)
	f.Add(readGolden(f, "v2.g5"))
	f.Add(readGolden(f, "v1-legacy.g5"))

	f.Fuzz(func(t *testing.T, data []byte) {
		h, sys, err := Read(bytes.NewReader(data))
		if err != nil {
			return // clean failure
		}
		// Successful parse: the result must be structurally sound.
		if sys == nil {
			t.Fatal("nil system without error")
		}
		if int64(sys.N()) != h.N {
			t.Fatalf("header N %d != system N %d", h.N, sys.N())
		}
		if len(sys.Vel) != sys.N() || len(sys.Mass) != sys.N() || len(sys.ID) != sys.N() {
			t.Fatal("inconsistent arrays on successful parse")
		}
	})
}
