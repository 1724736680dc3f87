package ckpt

import (
	"bytes"
	"testing"
)

// FuzzRead: the checkpoint reader is the trust boundary between a file
// that survived a crash and the integrator. It must never panic, never
// over-allocate from forged lengths, and never return state that was
// not checksum-verified — a corrupt checkpoint is an error, full stop.
func FuzzRead(f *testing.F) {
	c := sampleCheckpoint(16)
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:12])
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("not a checkpoint at all"))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	for _, name := range []string{"v1.g5ck", "v2-block.g5ck", "v2-adaptive.g5ck"} {
		f.Add(readGolden(f, name))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			return // clean rejection
		}
		if got == nil || got.Sys == nil {
			t.Fatal("nil checkpoint without error")
		}
		// A successful parse must be structurally sound and re-encodable
		// (anything the reader accepts, the writer must be able to
		// persist again).
		n := got.Sys.N()
		if len(got.Sys.Vel) != n || len(got.Sys.Acc) != n || len(got.Sys.Mass) != n ||
			len(got.Sys.Pot) != n || len(got.Sys.ID) != n {
			t.Fatal("inconsistent arrays on successful parse")
		}
		var re bytes.Buffer
		if werr := Write(&re, got); werr != nil {
			t.Fatalf("re-encode of accepted checkpoint failed: %v", werr)
		}
	})
}
