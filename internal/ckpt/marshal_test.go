package ckpt

import (
	"bytes"
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
