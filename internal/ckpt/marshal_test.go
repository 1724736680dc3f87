package ckpt

import (
	"bytes"
	"runtime"
	"testing"
)

// TestMarshalRoundtrip: Marshal → Read must reproduce the
// checkpoint, and marshalling the reconstruction must give the exact
// same bytes (the job server's result payloads rely on Marshal output
// being a stable function of the simulation state).
func TestMarshalRoundtrip(t *testing.T) {
	c := sampleCheckpoint(37)
	data, err := Marshal(c)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	data2, err := Marshal(got)
	if err != nil {
		t.Fatalf("re-Marshal: %v", err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("marshal not stable: %d bytes vs %d bytes", len(data), len(data2))
	}
}

// TestUnmarshalRejectsCorruption: a flipped payload byte must fail the
// CRC, same as Read.
func TestUnmarshalRejectsCorruption(t *testing.T) {
	data, err := Marshal(sampleCheckpoint(8))
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	data[len(data)-20] ^= 0x40
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("Unmarshal accepted a corrupted checkpoint")
	}
}

// TestMarshalAllocs: Marshal encodes into one buffer of exactly the
// file's length, so an N = 256 checkpoint allocates at most twice its
// output (a 1 MiB write buffer and a 48 kB chunk per call made it
// 1,125,521 B for 24,894 output bytes).
func TestMarshalAllocs(t *testing.T) {
	for _, c := range []*Checkpoint{sampleCheckpoint(256), sampleBlockCheckpoint(256)} {
		data, err := Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		if cap(data) != len(data) {
			t.Errorf("version %d: %d output bytes in a %d-byte buffer", le.Uint32(data[4:]), len(data), cap(data))
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := Marshal(c); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perCall := (after.TotalAlloc - before.TotalAlloc) / runs
		if perCall > 2*uint64(len(data)) {
			t.Errorf("version %d: Marshal allocates %d B for %d output bytes, want <= 2×", le.Uint32(data[4:]), perCall, len(data))
		}
		t.Logf("version %d: %d B allocated for %d output bytes", le.Uint32(data[4:]), perCall, len(data))
	}
}
