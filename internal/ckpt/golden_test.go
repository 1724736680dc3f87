package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
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

// allocBytes returns the bytes f allocates per call, over runs calls.
func allocBytes(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestWriteAllocs gates the codec's reason to exist: a checkpoint is
// encoded into the Encoder's one buffer, not by one reflective write
// (three allocations) per particle, and that buffer stays at
// snapio.BufSize however large the file (a 1 MiB cap allocated 1 MiB a
// call at this N).
func TestWriteAllocs(t *testing.T) {
	c := sampleCheckpoint(65536)
	write := func() {
		if err := Write(io.Discard, c); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(5, write); avg > 64 {
		t.Errorf("Write at N=65536 makes %.0f allocations, want <= 64", avg)
	}
	if b := allocBytes(5, write); b > 128<<10 {
		t.Errorf("Write at N=65536 allocates %d B, want <= 128 KiB", b)
	}
}

// TestReadFileAllocatesOnce: with the file's length known, a resume
// allocates each particle array once (growing them by append allocated
// 5.1× the payload at this N).
func TestReadFileAllocatesOnce(t *testing.T) {
	const n = 1 << 18
	path := filepath.Join(t.TempDir(), "big.g5ck")
	if _, err := WriteFile(path, sampleCheckpoint(n)); err != nil {
		t.Fatal(err)
	}
	payload := uint64(8 + n*bytesPerParticle)
	for name, load := range map[string]func(string) (*Checkpoint, error){
		"ReadFile": ReadFile, "LoadResumable": LoadResumable,
	} {
		var err error
		b := allocBytes(1, func() { _, err = load(path) })
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b > payload*11/10 {
			t.Errorf("%s at N=%d allocates %d B for a %d B payload, want <= 1.1×", name, n, b, payload)
		}
		t.Logf("%s: %d B allocated for a %d B payload (%.3f×)", name, b, payload, float64(b)/float64(payload))
	}
}

// TestForgedCountFailsShortRead: a PART header declaring more particles
// than the file holds fails on the short read, and no array grows past
// the decoder's growth cap (snapio's growCap, 1<<16 elements) first.
func TestForgedCountFailsShortRead(t *testing.T) {
	data := encode(t, sampleCheckpoint(1000))
	const forged = 1 << 30
	part := 12 + 16 + stateSize // the file header, then STAT's framing and payload
	le.PutUint64(data[part+4:], 8+forged*bytesPerParticle)
	le.PutUint64(data[part+12:], forged)
	path := filepath.Join(t.TempDir(), "forged.g5ck")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var err error
	b := allocBytes(1, func() { _, err = ReadFile(path) })
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("ReadFile(forged N=%d) = %v, want a short read", forged, err)
	}
	if limit := uint64(24<<16 + 256<<10); b > limit {
		t.Errorf("ReadFile(forged N=%d) allocates %d B, want <= %d (one growth-capped array)", forged, b, limit)
	}
}
