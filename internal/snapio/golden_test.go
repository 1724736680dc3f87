package snapio

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func readGolden(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGoldenFilesByteIdentical: testdata/golden/v2.g5 was written by
// the last commit before the shared codec (one reflective binary.Write
// per particle); the writer must still produce exactly those bytes and
// the reader must return what they were written from.
func TestGoldenFilesByteIdentical(t *testing.T) {
	golden := readGolden(t, "v2.g5")
	h := Header{N: 20, Time: 1.5, Step: 42, Scale: 0.25, Eps: 0.01, Theta: 0.75, DT: 0.005}
	s := sample(20, 1)
	var buf bytes.Buffer
	if err := Write(&buf, h, s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Errorf("Write produced %d bytes that differ from the %d-byte golden file", buf.Len(), len(golden))
	}
	h2, s2, err := Read(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	if h2 != h {
		t.Errorf("header = %+v, want %+v", h2, h)
	}
	for i := range s.Pos {
		if s.Pos[i] != s2.Pos[i] || s.Vel[i] != s2.Vel[i] || s.Mass[i] != s2.Mass[i] || s.ID[i] != s2.ID[i] {
			t.Fatalf("particle %d mismatch", i)
		}
	}
}

// TestGoldenLegacyV1Readable reads the committed hand-built version-1
// file (no DT, no CRC trailer): the legacy layout stays loadable.
func TestGoldenLegacyV1Readable(t *testing.T) {
	h, s2, err := Read(bytes.NewReader(readGolden(t, "v1-legacy.g5")))
	if err != nil {
		t.Fatalf("legacy v1 snapshot rejected: %v", err)
	}
	if want := (Header{N: 30, Time: 3.5, Step: 9, Scale: 0.5, Eps: 0.01, Theta: 0.8}); h != want {
		t.Errorf("header = %+v, want %+v", h, want)
	}
	s := sample(30, 6)
	for i := range s.Pos {
		if s.Pos[i] != s2.Pos[i] || s.Vel[i] != s2.Vel[i] || s.Mass[i] != s2.Mass[i] || s.ID[i] != s2.ID[i] {
			t.Fatalf("particle %d mismatch", i)
		}
	}
}

// TestWriteAllocs: a snapshot is encoded into the Encoder's one buffer,
// not by one reflective write per particle, and that buffer stays at
// BufSize however large the file (a 1 MiB cap allocated 1 MiB a call at
// this N).
func TestWriteAllocs(t *testing.T) {
	s := sample(65536, 1)
	write := func() {
		if err := Write(io.Discard, Header{Time: 1}, s); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(5, write); avg > 64 {
		t.Errorf("Write at N=65536 makes %.0f allocations, want <= 64", avg)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		write()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > 128<<10 {
		t.Errorf("Write at N=65536 allocates %d B, want <= 128 KiB", b)
	}
}
