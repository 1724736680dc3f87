package snapio

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/nbody"
	"repro/internal/rng"
	"repro/internal/vec"
)

func sample(n int, seed uint64) *nbody.System {
	return nbody.Plummer(n, 1, 1, 1, rng.New(seed))
}

func TestRoundTrip(t *testing.T) {
	s := sample(500, 1)
	h := Header{Time: 1.5, Step: 42, Scale: 0.25, Eps: 0.01, Theta: 0.75}
	var buf bytes.Buffer
	if err := Write(&buf, h, s); err != nil {
		t.Fatal(err)
	}
	h2, s2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h2.N != 500 || h2.Time != 1.5 || h2.Step != 42 || h2.Scale != 0.25 ||
		h2.Eps != 0.01 || h2.Theta != 0.75 {
		t.Errorf("header = %+v", h2)
	}
	for i := range s.Pos {
		if s.Pos[i] != s2.Pos[i] || s.Vel[i] != s2.Vel[i] ||
			s.Mass[i] != s2.Mass[i] || s.ID[i] != s2.ID[i] {
			t.Fatalf("particle %d mismatch", i)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	s := sample(100, 2)
	path := filepath.Join(t.TempDir(), "snap.g5")
	if err := WriteFile(path, Header{Time: 2}, s); err != nil {
		t.Fatal(err)
	}
	h, s2, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if h.Time != 2 || s2.N() != 100 {
		t.Errorf("h=%+v n=%d", h, s2.N())
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	if _, _, err := Read(bytes.NewReader([]byte("not a snapshot file at all"))); err == nil {
		t.Error("garbage accepted")
	}
}

func TestReadRejectsTruncated(t *testing.T) {
	s := sample(50, 3)
	var buf bytes.Buffer
	if err := Write(&buf, Header{}, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{3, 8, 40, len(data) / 2, len(data) - 1} {
		if _, _, err := Read(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestReadRejectsWrongVersion(t *testing.T) {
	s := sample(10, 4)
	var buf bytes.Buffer
	if err := Write(&buf, Header{}, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 99 // version byte
	if _, _, err := Read(bytes.NewReader(data)); err == nil {
		t.Error("future version accepted")
	}
}

func TestEmptySystemRoundTrip(t *testing.T) {
	s := nbody.New(0)
	var buf bytes.Buffer
	if err := Write(&buf, Header{}, s); err != nil {
		t.Fatal(err)
	}
	_, s2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s2.N() != 0 {
		t.Errorf("N = %d", s2.N())
	}
}

func TestRoundTripDT(t *testing.T) {
	s := sample(20, 5)
	var buf bytes.Buffer
	if err := Write(&buf, Header{Time: 1, DT: 0.005}, s); err != nil {
		t.Fatal(err)
	}
	h, _, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.DT != 0.005 {
		t.Errorf("DT = %v, want 0.005", h.DT)
	}
}

// TestLegacyV1Readable writes the version-1 layout by hand (no DT, no
// CRC trailer) and checks the current reader still accepts it.
func TestLegacyV1Readable(t *testing.T) {
	s := sample(30, 6)
	var buf bytes.Buffer
	le := binary.LittleEndian
	for _, v := range []any{uint32(Magic), uint32(1),
		headerV1{N: int64(s.N()), Time: 3.5, Step: 9, Scale: 0.5, Eps: 0.01, Theta: 0.8}} {
		if err := binary.Write(&buf, le, v); err != nil {
			t.Fatal(err)
		}
	}
	for _, arr := range [][]vec.V3{s.Pos, s.Vel} {
		for _, p := range arr {
			if err := binary.Write(&buf, le, [3]float64{p.X, p.Y, p.Z}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := binary.Write(&buf, le, s.Mass); err != nil {
		t.Fatal(err)
	}
	if err := binary.Write(&buf, le, s.ID); err != nil {
		t.Fatal(err)
	}

	h, s2, err := Read(&buf)
	if err != nil {
		t.Fatalf("legacy v1 snapshot rejected: %v", err)
	}
	if h.Time != 3.5 || h.Step != 9 || h.Scale != 0.5 || h.Eps != 0.01 || h.Theta != 0.8 {
		t.Errorf("header = %+v", h)
	}
	if h.DT != 0 {
		t.Errorf("legacy DT = %v, want 0", h.DT)
	}
	for i := range s.Pos {
		if s.Pos[i] != s2.Pos[i] || s.Vel[i] != s2.Vel[i] {
			t.Fatalf("particle %d mismatch", i)
		}
	}
}

// TestCRCDetectsCorruption flips single bits across the payload of a
// current-format snapshot; every mutant must be rejected.
func TestCRCDetectsCorruption(t *testing.T) {
	s := sample(25, 7)
	var buf bytes.Buffer
	if err := Write(&buf, Header{Time: 1, DT: 0.01}, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, off := range []int{9, 16, 60, 100, len(data) / 2, len(data) - 5, len(data) - 1} {
		mutant := append([]byte(nil), data...)
		mutant[off] ^= 0x10
		if _, _, err := Read(bytes.NewReader(mutant)); err == nil {
			t.Errorf("bit flip at byte %d accepted", off)
		}
	}
}

// TestWriteFileAtomic: overwriting an existing snapshot goes through a
// temp file; after a successful write no temp remains and the contents
// are the new ones.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.g5")
	if err := WriteFile(path, Header{Time: 1}, sample(10, 8)); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, Header{Time: 2}, sample(10, 9)); err != nil {
		t.Fatal(err)
	}
	h, _, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if h.Time != 2 {
		t.Errorf("Time = %v, want the replacement's 2", h.Time)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp file left behind: %s", e.Name())
		}
	}
}

// TestEncoderBufferSizes: the bytes and the CRC of a stream do not
// depend on the Encoder's buffer, whether it holds one element, part of
// the stream or all of it, or grows in memory with no writer; and a
// write larger than the buffer goes through whole.
func TestEncoderBufferSizes(t *testing.T) {
	s := sample(100, 4)
	big := make([]byte, 1000)
	for i := range big {
		big[i] = byte(i)
	}
	encode := func(enc *Encoder) uint32 {
		enc.Write([]byte("head"))
		enc.V3s(s.Pos)
		enc.Write(big)
		enc.F64s(s.Mass)
		enc.I64s(s.ID)
		crc, _ := enc.Sum()
		return crc
	}
	ref := NewEncoder(nil, 0)
	wantCRC := encode(ref)
	want := ref.Bytes()
	if len(want) != 4+100*24+1000+100*16 {
		t.Fatalf("in-memory stream is %d bytes", len(want))
	}
	for _, size := range []int{0, 24, 100, 1500, len(want), 1 << 20} {
		var buf bytes.Buffer
		enc := NewEncoder(&buf, size)
		crc := encode(enc)
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) || crc != wantCRC {
			t.Errorf("buffer size %d: stream or CRC differs from the in-memory one", size)
		}
	}
}
