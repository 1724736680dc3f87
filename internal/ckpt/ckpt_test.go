package ckpt

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/nbody"
	"repro/internal/rng"
)

// sampleCheckpoint builds a checkpoint with every State field set to a
// distinct non-zero value, so round-trip tests catch field-order and
// truncation bugs.
func sampleCheckpoint(n int) *Checkpoint {
	s := nbody.Plummer(n, 1, 1, 1, rng.New(7))
	for i := range s.Acc {
		s.Acc[i].X = float64(i) + 0.25
		s.Acc[i].Y = -float64(i) - 0.5
		s.Acc[i].Z = float64(i) * 0.125
		s.Pot[i] = -1.5 * float64(i+1)
	}
	return &Checkpoint{
		State: State{
			Step: 42, Time: 1.5, DT: 0.005,
			Scale: 0.04, T0: 0.1, Age0: 13.2,
			Theta: 0.75, Eps: 0.02, G: 1, Ncrit: 2000, LeafCap: 8,
			RebuildEvery: 1, PMGrid: 64, Engine: 1, Shards: 2, Seed: 99,
			TotalInteractions: 123456,
			Recovery: RecoveryCounters{Checks: 10, Retries: 2, CorruptResults: 1, ExcludedBoards: 3,
				FallbackBatches: 4, HostOnly: true},
			Hardware: HardwareCounters{Interactions: 777, PipeSeconds: 0.25, BusSeconds: 0.125,
				BytesTransferred: 8192, Runs: 17, JPasses: 19, RangeClamps: 5},
			Faults: FaultCounters{JMemBitFlips: 6, StuckPipeCalls: 7, BusErrors: 8, Transients: 9},
			Primed: true,
		},
		Sys: s,
	}
}

func encode(t *testing.T, c *Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	c := sampleCheckpoint(200)
	c2, err := Read(bytes.NewReader(encode(t, c)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.State, c2.State) {
		t.Errorf("state mismatch:\n got %+v\nwant %+v", c2.State, c.State)
	}
	s, s2 := c.Sys, c2.Sys
	if s2.N() != s.N() {
		t.Fatalf("N = %d, want %d", s2.N(), s.N())
	}
	for i := range s.Pos {
		if s.Pos[i] != s2.Pos[i] || s.Vel[i] != s2.Vel[i] || s.Acc[i] != s2.Acc[i] ||
			s.Mass[i] != s2.Mass[i] || s.Pot[i] != s2.Pot[i] || s.ID[i] != s2.ID[i] {
			t.Fatalf("particle %d not bitwise identical", i)
		}
	}
}

func TestEmptySystemRoundTrip(t *testing.T) {
	c := &Checkpoint{Sys: nbody.New(0)}
	c2, err := Read(bytes.NewReader(encode(t, c)))
	if err != nil {
		t.Fatal(err)
	}
	if c2.Sys.N() != 0 {
		t.Errorf("N = %d", c2.Sys.N())
	}
}

// TestEveryBitFlipDetected flips one bit in every byte of a small
// encoded checkpoint and demands the reader reject each mutant: the
// format has no slack bytes whose corruption could pass unnoticed.
func TestEveryBitFlipDetected(t *testing.T) {
	data := encode(t, sampleCheckpoint(8))
	mutant := make([]byte, len(data))
	for i := range data {
		copy(mutant, data)
		mutant[i] ^= 1 << uint(i%8)
		if _, err := Read(bytes.NewReader(mutant)); err == nil {
			t.Fatalf("bit flip at byte %d of %d accepted", i, len(data))
		}
	}
}

func TestEveryTruncationDetected(t *testing.T) {
	data := encode(t, sampleCheckpoint(8))
	for cut := 0; cut < len(data); cut++ {
		if _, err := Read(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", cut, len(data))
		}
	}
	// Trailing garbage is tolerated (the reader consumes exactly the
	// declared sections) — but the declared content must still verify.
	if _, err := Read(bytes.NewReader(append(append([]byte{}, data...), 0xAA))); err != nil {
		t.Errorf("trailing byte rejected: %v", err)
	}
}

func TestReadRejectsWrongMagicAndVersion(t *testing.T) {
	data := encode(t, sampleCheckpoint(4))
	bad := append([]byte{}, data...)
	bad[0] ^= 0xFF
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	bad = append(bad[:0], data...)
	bad[4] = 99
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("future version accepted")
	}
}

func TestWriteRejectsInconsistentSystem(t *testing.T) {
	c := sampleCheckpoint(4)
	c.Sys.Pot = c.Sys.Pot[:2]
	var buf bytes.Buffer
	if err := Write(&buf, c); err == nil {
		t.Error("inconsistent arrays accepted")
	}
	if err := Write(&buf, nil); err == nil {
		t.Error("nil checkpoint accepted")
	}
}

// sampleBlockCheckpoint extends the sample with version-2 block
// scheduling state: distinct rungs across particles, a non-zero tick on
// a common step boundary of every occupied rung.
func sampleBlockCheckpoint(n int) *Checkpoint {
	c := sampleCheckpoint(n)
	rungs := make([]uint8, n)
	for i := range rungs {
		rungs[i] = uint8(i % 3) // rungs 0..2, all boundaries align at tick 0
	}
	c.Block = &BlockState{
		Mode: ModeBlock, Tick: 0, DTMin: 0.001, Eta: 0.2, MaxRung: 4, Rungs: rungs,
	}
	return c
}

func TestBlockRoundTrip(t *testing.T) {
	c := sampleBlockCheckpoint(64)
	c.Block.Tick = 8 // boundary of rungs 0..3
	data := encode(t, c)
	c2, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if c2.Block == nil {
		t.Fatal("block state lost")
	}
	if !reflect.DeepEqual(c.Block, c2.Block) {
		t.Errorf("block state mismatch:\n got %+v\nwant %+v", c2.Block, c.Block)
	}
	if !reflect.DeepEqual(c.State, c2.State) {
		t.Error("scalar state mismatch in v2 file")
	}
}

func TestAdaptiveBlockRoundTrip(t *testing.T) {
	c := sampleCheckpoint(16)
	c.Block = &BlockState{Mode: ModeAdaptive, DTMin: 0.0005, Eta: 0.25}
	c2, err := Read(bytes.NewReader(encode(t, c)))
	if err != nil {
		t.Fatal(err)
	}
	if c2.Block == nil || c2.Block.Mode != ModeAdaptive || c2.Block.Eta != 0.25 {
		t.Errorf("adaptive block state = %+v", c2.Block)
	}
	if len(c2.Block.Rungs) != 0 {
		t.Errorf("adaptive mode carried %d rungs", len(c2.Block.Rungs))
	}
}

// TestV1FilesUnchangedAndStillReadable pins backward compatibility: a
// checkpoint without block state must encode byte-identically to the
// pre-v2 format (version 1, two sections) and still read back.
func TestV1FilesUnchangedAndStillReadable(t *testing.T) {
	data := encode(t, sampleCheckpoint(8))
	le := binaryLE(t, data)
	if v := le; v != 1 {
		t.Errorf("no-block checkpoint wrote version %d, want 1", v)
	}
	c2, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if c2.Block != nil {
		t.Errorf("v1 file produced block state %+v", c2.Block)
	}
}

// binaryLE extracts the version word from an encoded checkpoint.
func binaryLE(t *testing.T, data []byte) uint32 {
	t.Helper()
	if len(data) < 8 {
		t.Fatal("short header")
	}
	return uint32(data[4]) | uint32(data[5])<<8 | uint32(data[6])<<16 | uint32(data[7])<<24
}

func TestBlockEveryBitFlipDetected(t *testing.T) {
	data := encode(t, sampleBlockCheckpoint(8))
	mutant := make([]byte, len(data))
	for i := range data {
		copy(mutant, data)
		mutant[i] ^= 1 << uint(i%8)
		if _, err := Read(bytes.NewReader(mutant)); err == nil {
			t.Fatalf("bit flip at byte %d of %d accepted", i, len(data))
		}
	}
}

func TestBlockValidationRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*BlockState, int)
	}{
		{"unknown mode", func(b *BlockState, n int) { b.Mode = 3 }},
		{"negative tick", func(b *BlockState, n int) { b.Tick = -1 }},
		{"tick past span", func(b *BlockState, n int) { b.Tick = int64(1) << uint(b.MaxRung) }},
		{"max rung huge", func(b *BlockState, n int) { b.MaxRung = 63 }},
		{"rung above max", func(b *BlockState, n int) { b.MaxRung = 1; b.Rungs[3] = 2 }},
		{"rung count short", func(b *BlockState, n int) { b.Rungs = b.Rungs[:n-1] }},
		{"zero dtmin", func(b *BlockState, n int) { b.DTMin = 0 }},
		{"nan eta", func(b *BlockState, n int) { b.Eta = nan() }},
		{"adaptive with rungs", func(b *BlockState, n int) { b.Mode = ModeAdaptive }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := sampleBlockCheckpoint(8)
			tc.mut(c.Block, 8)
			var buf bytes.Buffer
			if err := Write(&buf, c); err == nil {
				t.Errorf("writer accepted %s", tc.name)
			}
		})
	}
}

func nan() float64 { return math.NaN() }

// failAfter fails every write once limit bytes have been accepted.
type failAfter struct{ limit int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.limit -= len(p); f.limit < 0 {
		return 0, errDiskFull
	}
	return len(p), nil
}

var errDiskFull = errors.New("disk full")

// TestWriteReportsWriterError: the encoder drops writes after the first
// failure and reports it at the end — as the stream's own error, not as
// a section-length mismatch — whether the stream fails at once or
// mid-file.
func TestWriteReportsWriterError(t *testing.T) {
	c := sampleCheckpoint(30000) // ~2.9 MB: several buffer flushes
	for _, limit := range []int{0, 1 << 20, 2 << 20} {
		if err := Write(&failAfter{limit: limit}, c); !errors.Is(err, errDiskFull) {
			t.Errorf("stream failing after %d bytes: err = %v, want the stream's error", limit, err)
		}
	}
}
