package ckpt

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// goldenCheckpoints are the byte-golden fixtures under testdata/golden,
// written by the last commit before the shared codec (reflective
// per-particle binary.Write, flat counter fields in State), paired with
// the in-memory checkpoints they were written from.
func goldenCheckpoints() map[string]*Checkpoint {
	block := sampleBlockCheckpoint(8)
	block.Block.Tick = 8
	adaptive := sampleCheckpoint(8)
	adaptive.Block = &BlockState{Mode: ModeAdaptive, DTMin: 0.0005, Eta: 0.25}
	return map[string]*Checkpoint{
		"v1.g5ck": sampleCheckpoint(8), "v2-block.g5ck": block, "v2-adaptive.g5ck": adaptive,
	}
}

func readGolden(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGoldenFilesByteIdentical: the writer still produces, and the
// reader still accepts, exactly the files earlier commits wrote.
func TestGoldenFilesByteIdentical(t *testing.T) {
	for name, c := range goldenCheckpoints() {
		t.Run(name, func(t *testing.T) {
			golden := readGolden(t, name)
			if got := encode(t, c); !bytes.Equal(got, golden) {
				t.Errorf("Write produced %d bytes that differ from the %d-byte golden file", len(got), len(golden))
			}
			back, err := Read(bytes.NewReader(golden))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, c) {
				t.Errorf("Read(golden) = %+v, want the checkpoint it was written from", back.State)
			}
		})
	}
}

// TestStateSizeUnchanged pins the STAT payload size: nesting the
// counters must not move a byte.
func TestStateSizeUnchanged(t *testing.T) {
	if n := binary.Size(State{}); n != 266 {
		t.Errorf("binary.Size(State{}) = %d, want 266", n)
	}
}

// TestWriteAllocs gates the codec's reason to exist: a checkpoint is
// encoded into the Encoder's one buffer, not by one reflective write
// (three allocations) per particle.
func TestWriteAllocs(t *testing.T) {
	c := sampleCheckpoint(65536)
	if avg := testing.AllocsPerRun(5, func() {
		if err := Write(io.Discard, c); err != nil {
			t.Fatal(err)
		}
	}); avg > 64 {
		t.Errorf("Write at N=65536 makes %.0f allocations, want <= 64", avg)
	}
}
