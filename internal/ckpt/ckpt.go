// Package ckpt implements the durable run-state layer: a versioned,
// section-CRC'd checkpoint format capturing the *complete* simulation
// state — particle system including post-force accelerations and
// potentials, integrator phase, step index and simulation time,
// cosmology anchors, the run's config fingerprint, and the cumulative
// recovery/hardware counters — plus a rotating on-disk Store with
// latest-valid discovery.
//
// A snapshot (package snapio) is initial conditions plus provenance; a
// checkpoint is everything needed to continue a run so that the resumed
// trajectory is bitwise identical to the uninterrupted one. Corruption
// is always detected: every section carries a CRC-32C and the reader
// verifies structure, bounds and checksums before returning anything —
// a truncated or bit-flipped checkpoint yields an error, never silently
// wrong physics.
//
// # File format (versions 1 and 2)
//
//	uint32  magic "G5CP"
//	uint32  version
//	uint32  section count (2 for version 1, 3 for version 2)
//	        section "STAT": tag [4]byte, length uint64, payload, crc32c
//	        section "PART": tag [4]byte, length uint64, payload, crc32c
//	        section "RUNG": tag [4]byte, length uint64, payload, crc32c  (v2 only)
//
// All integers are little-endian. STAT is the fixed-size State struct;
// PART is int64 N followed by positions, velocities, accelerations
// (3×float64 each), masses, potentials (float64) and IDs (int64), all
// N long. Section lengths are validated exactly (8 + 96·N for PART), so
// a forged length cannot drive a runaway allocation.
//
// Version 2 adds the RUNG section carrying per-particle timestep
// scheduling state (BlockState): the scheduling mode, the block clock,
// the rung-criterion scalars and the per-particle rung bytes. Writers
// emit version 1 — byte-identical to before the format existed — when
// the checkpoint has no Block, so shared-dt runs keep producing v1
// files and v1 readers keep working on them.
package ckpt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/fsx"
	"repro/internal/nbody"
	"repro/internal/snapio"
)

// Magic identifies checkpoint files ("G5CP").
const Magic = 0x47354350

// Version is the base checkpoint format version (no RUNG section).
const Version = 1

// VersionBlock is the format version carrying the RUNG scheduling
// section; emitted only when Checkpoint.Block is set.
const VersionBlock = 2

// MaxParticles bounds the particle count a reader will accept; a forged
// header beyond it fails before any large allocation.
const MaxParticles = 1 << 31

const (
	tagState = "STAT"
	tagPart  = "PART"
	tagRung  = "RUNG"
)

// Scheduling modes stored in BlockState.Mode.
const (
	// ModeAdaptive is shared adaptive dt (TimestepCriterion): no
	// per-particle rungs, the criterion scalars alone.
	ModeAdaptive = 1
	// ModeBlock is hierarchical block timesteps: per-particle rungs and
	// the block tick clock.
	ModeBlock = 2
)

// bytesPerParticle is the PART payload size per particle: pos, vel, acc
// (3 × 3 float64) + mass + pot (float64) + id (int64).
const bytesPerParticle = 9*8 + 8 + 8 + 8

var le = binary.LittleEndian

// State is the scalar simulation state stored in the STAT section. All
// fields are fixed-size so the binary layout is the struct's field
// order; any change to this struct is a format version bump.
//
// Fingerprint fields record the configuration the checkpointed run was
// using; zero (or -1 for Engine) means unknown. Resume merges them with
// the caller's config and fails loudly on a conflict.
type State struct {
	// Step is the number of completed integration steps.
	Step int64
	// Time is the elapsed simulation time.
	Time float64
	// DT is the integration timestep.
	DT float64

	// Scale, T0 and Age0 are the cosmology anchors of the driving run
	// (base scale factor and the EdS schedule's start time and a=1 age);
	// all zero for non-cosmological runs.
	Scale float64
	T0    float64
	Age0  float64

	// Config fingerprint (0 = unset/unknown). LeafCap and RebuildEvery
	// are the slots of two retired run options, kept so the layout
	// stays put: writers store 0, and a resume refuses any value but
	// the one every run now uses (leaf capacity 8, a rebuild every step).
	Theta        float64
	Eps          float64
	G            float64
	Ncrit        int64
	LeafCap      int64
	RebuildEvery int64
	PMGrid       int64
	// Engine is the force-engine kind as an integer (-1 = unknown).
	Engine int64
	// Shards is the cluster shard count (bitwise-neutral: any K yields
	// the same trajectory; recorded for provenance and inherit-if-unset).
	Shards int64
	// Seed is the IC generator seed, for provenance only.
	Seed uint64

	// TotalInteractions is the whole-run cumulative pairwise
	// interaction count.
	TotalInteractions int64

	// Whole-run cumulative guard recovery, hardware activity and
	// injected-fault counters.
	Recovery RecoveryCounters
	Hardware HardwareCounters
	Faults   FaultCounters

	// Primed marks the particle accelerations and potentials as valid
	// post-force state: a primed resume continues without re-priming,
	// exactly like the uninterrupted run's next step.
	Primed bool
}

// RecoveryCounters, HardwareCounters and FaultCounters pin the stored
// layout of g5.Recovery, g5.Counters and g5.FaultStats. They mirror
// those structs field for field so the simulation moves them by struct
// conversion, which stops compiling when the two sides drift: a new g5
// counter is a conscious format version bump here, never a silent one.
type RecoveryCounters struct {
	Checks, Retries, CorruptResults, ExcludedBoards, FallbackBatches int64
	HostOnly                                                         bool
}

type HardwareCounters struct {
	Interactions                                 int64
	PipeSeconds, BusSeconds                      float64
	BytesTransferred, Runs, JPasses, RangeClamps int64
}

type FaultCounters struct {
	JMemBitFlips, StuckPipeCalls, BusErrors, Transients int64
}

// stateSize is the exact binary size of State; fixed at init.
var stateSize = func() int {
	n := binary.Size(State{})
	if n <= 0 {
		panic("ckpt: State is not fixed-size")
	}
	return n
}()

// BlockState is the per-particle timestep scheduling state stored in
// the version-2 RUNG section. Checkpoints are taken at block boundaries
// (Tick == 0 for an idle scheduler is the common case, but any common
// step boundary the integrator accepts is storable), so a resumed run
// re-enters the block loop exactly where the uninterrupted one was.
type BlockState struct {
	// Mode is the scheduling mode (ModeAdaptive or ModeBlock).
	Mode int64
	// Tick is the block clock in DTMin units (ModeBlock only).
	Tick int64
	// DTMin and Eta are the rung-criterion scalars (Eta doubles as the
	// adaptive criterion's eta in ModeAdaptive).
	DTMin float64
	Eta   float64
	// MaxRung is the coarsest rung exponent (ModeBlock only).
	MaxRung int64
	// Rungs are the per-particle rung assignments indexed by particle
	// ID; empty in ModeAdaptive, exactly N long in ModeBlock.
	Rungs []uint8
}

// rungFixedSize is the RUNG payload size excluding the rung bytes:
// Mode, Tick, DTMin, Eta, MaxRung, and the rung-array length prefix.
const rungFixedSize = 6 * 8

// validate applies the format-level invariants given the particle
// count of the PART section.
func (b *BlockState) validate(n int) error {
	switch b.Mode {
	case ModeAdaptive:
		if len(b.Rungs) != 0 {
			return fmt.Errorf("adaptive scheduling with %d rung entries", len(b.Rungs))
		}
	case ModeBlock:
		if b.MaxRung < 0 || b.MaxRung > 62 {
			return fmt.Errorf("implausible max rung %d", b.MaxRung)
		}
		if len(b.Rungs) != n {
			return fmt.Errorf("%d rung entries for N=%d", len(b.Rungs), n)
		}
		if b.Tick < 0 || b.Tick >= int64(1)<<uint(b.MaxRung) {
			return fmt.Errorf("tick %d outside block span %d", b.Tick, int64(1)<<uint(b.MaxRung))
		}
		for i, r := range b.Rungs {
			if int64(r) > b.MaxRung {
				return fmt.Errorf("rung %d at index %d exceeds max rung %d", r, i, b.MaxRung)
			}
		}
		if !(b.DTMin > 0) {
			return fmt.Errorf("non-positive dtmin %v", b.DTMin)
		}
	default:
		return fmt.Errorf("unknown scheduling mode %d", b.Mode)
	}
	if !finite(b.DTMin, b.Eta) {
		return fmt.Errorf("non-finite criterion scalars dtmin=%v eta=%v", b.DTMin, b.Eta)
	}
	return nil
}

// Checkpoint is the complete durable run state.
type Checkpoint struct {
	State State
	// Sys is the particle system, in the exact in-memory (tree) order
	// of the checkpointed step.
	Sys *nbody.System
	// Block, when non-nil, is the per-particle timestep scheduling
	// state; its presence switches the file to VersionBlock.
	Block *BlockState
}

// FromSnapshot adapts a legacy snapshot into a resumable checkpoint:
// the snapshot's particles become initial conditions (accelerations are
// not trusted — the resume re-primes) and the header's provenance
// fields seed the fingerprint. A version-1 snapshot has no stored DT;
// State.DT is then 0 and resume demands an explicit timestep.
func FromSnapshot(h snapio.Header, s *nbody.System) *Checkpoint {
	return &Checkpoint{
		State: State{
			Step:   h.Step,
			Time:   h.Time,
			DT:     h.DT,
			Scale:  h.Scale,
			Theta:  h.Theta,
			Eps:    h.Eps,
			Engine: -1,
		},
		Sys: s,
	}
}

// LoadResumable loads whatever run state the named file holds, told
// apart by its magic: a checkpoint (full state, bitwise resume) or a
// snapshot (initial conditions plus provenance, via FromSnapshot; the
// resume re-primes).
func LoadResumable(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	raw, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("%s: reading magic: %w", path, err)
	}
	var c *Checkpoint
	switch magic := le.Uint32(raw); magic {
	case Magic:
		c, err = Read(br)
	case snapio.Magic:
		h, s, rerr := snapio.Read(br)
		c, err = FromSnapshot(h, s), rerr
	default:
		err = fmt.Errorf("neither a checkpoint nor a snapshot (magic %#x)", magic)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// Write serialises the checkpoint to w.
func Write(w io.Writer, c *Checkpoint) error {
	enc, err := writeTo(w, c)
	if err != nil {
		return err
	}
	return enc.Flush()
}

// writeTo checks c and writes it through an Encoder whose buffer is
// sized to the file, returned unflushed; with a nil w the Encoder keeps
// the whole file in memory.
func writeTo(w io.Writer, c *Checkpoint) (*snapio.Encoder, error) {
	if c == nil || c.Sys == nil {
		return nil, fmt.Errorf("ckpt: nil checkpoint")
	}
	s := c.Sys
	n := s.N()
	if len(s.Vel) != n || len(s.Acc) != n || len(s.Mass) != n || len(s.Pot) != n || len(s.ID) != n {
		return nil, fmt.Errorf("ckpt: inconsistent particle arrays")
	}
	if c.Block != nil {
		if err := c.Block.validate(n); err != nil {
			return nil, fmt.Errorf("ckpt: block state: %w", err)
		}
	}
	// Header, then per section its tag, length and CRC around the
	// payload.
	const framing = 4 + 8 + 4
	version, sections := uint32(Version), uint32(2)
	size := 12 + framing + stateSize + framing + 8 + n*bytesPerParticle
	if c.Block != nil {
		version, sections = VersionBlock, 3
		size += framing + rungFixedSize + len(c.Block.Rungs)
	}
	enc := snapio.NewEncoder(w, size)
	var hdr [12]byte
	le.PutUint32(hdr[0:], Magic)
	le.PutUint32(hdr[4:], version)
	le.PutUint32(hdr[8:], sections)
	enc.Write(hdr[:])

	if err := writeSection(enc, tagState, uint64(stateSize), func() error {
		return binary.Write(enc, le, &c.State)
	}); err != nil {
		return nil, err
	}
	if err := writeSection(enc, tagPart, uint64(8+n*bytesPerParticle), func() error {
		enc.I64s([]int64{int64(n)})
		enc.V3s(s.Pos)
		enc.V3s(s.Vel)
		enc.V3s(s.Acc)
		enc.F64s(s.Mass)
		enc.F64s(s.Pot)
		enc.I64s(s.ID)
		return nil
	}); err != nil {
		return nil, err
	}
	// RUNG (version 2 only)
	if b := c.Block; b != nil {
		if err := writeSection(enc, tagRung, uint64(rungFixedSize+len(b.Rungs)), func() error {
			enc.I64s([]int64{b.Mode, b.Tick})
			enc.F64s([]float64{b.DTMin, b.Eta})
			enc.I64s([]int64{b.MaxRung, int64(len(b.Rungs))})
			enc.Write(b.Rungs)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return enc, nil
}

// writeSection writes one tagged, length-prefixed, CRC-trailed section.
// The payload streams through the encoder's CRC tee, so no section-sized
// buffer is needed; the declared length is verified against the bytes
// actually produced. Write errors surface at the encoder's Flush.
func writeSection(enc *snapio.Encoder, tag string, length uint64, payload func() error) error {
	enc.Write(le.AppendUint64([]byte(tag), length))
	enc.Reset()
	if err := payload(); err != nil {
		return err
	}
	crc, n := enc.Sum()
	if n != int64(length) {
		return fmt.Errorf("ckpt: section %s wrote %d bytes, declared %d", tag, n, length)
	}
	enc.Write(le.AppendUint32(nil, crc))
	return nil
}

// Read parses and fully validates a checkpoint: magic, version, section
// structure, exact lengths, particle-count bounds and every CRC. It
// returns an error on any deviation; a successful return is a complete,
// checksum-verified checkpoint.
func Read(r io.Reader) (*Checkpoint, error) {
	dec := snapio.NewDecoder(r)

	var hdr [12]byte
	if _, err := io.ReadFull(dec, hdr[:]); err != nil {
		return nil, fmt.Errorf("ckpt: reading header: %w", err)
	}
	if m := le.Uint32(hdr[0:]); m != Magic {
		return nil, fmt.Errorf("ckpt: bad magic %#x", m)
	}
	version := le.Uint32(hdr[4:])
	if version != Version && version != VersionBlock {
		return nil, fmt.Errorf("ckpt: unsupported version %d", version)
	}
	wantSections := uint32(2)
	if version == VersionBlock {
		wantSections = 3
	}
	if ns := le.Uint32(hdr[8:]); ns != wantSections {
		return nil, fmt.Errorf("ckpt: version %d expects %d sections, header says %d", version, wantSections, ns)
	}

	c := &Checkpoint{}

	// STAT: fixed size known up front.
	if err := readSection(dec, tagState, func(length uint64) error {
		if length != uint64(stateSize) {
			return fmt.Errorf("state section is %d bytes, want %d (format drift?)", length, stateSize)
		}
		return binary.Read(dec, le, &c.State)
	}); err != nil {
		return nil, err
	}

	// PART: length is validated against the N it declares, and the
	// decoder grows each array only as its data arrives, so a truncated
	// stream fails cleanly before N-sized memory is committed.
	if err := readSection(dec, tagPart, func(length uint64) error {
		var n64 int64
		if err := binary.Read(dec, le, &n64); err != nil {
			return fmt.Errorf("particle count: %w", err)
		}
		if n64 < 0 || n64 > MaxParticles {
			return fmt.Errorf("implausible particle count %d", n64)
		}
		if want := uint64(8 + n64*bytesPerParticle); length != want {
			return fmt.Errorf("particle section is %d bytes for N=%d, want %d", length, n64, want)
		}
		n := int(n64)
		c.Sys = &nbody.System{
			Pos:  dec.V3s(n, "positions"),
			Vel:  dec.V3s(n, "velocities"),
			Acc:  dec.V3s(n, "accelerations"),
			Mass: dec.F64s(n, "masses"),
			Pot:  dec.F64s(n, "potentials"),
			ID:   dec.I64s(n, "ids"),
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// RUNG (version 2): fixed scalars plus the rung array, whose length
	// prefix must agree with the declared section length and the
	// particle count already read from PART.
	if version == VersionBlock {
		if err := readSection(dec, tagRung, func(length uint64) error {
			if length < rungFixedSize {
				return fmt.Errorf("rung section is %d bytes, want at least %d", length, rungFixedSize)
			}
			ints := dec.I64s(2, "mode and tick")
			floats := dec.F64s(2, "dtmin and eta")
			tail := dec.I64s(2, "max rung and rung count")
			if err := dec.Err(); err != nil {
				return err
			}
			b := &BlockState{Mode: ints[0], Tick: ints[1], DTMin: floats[0], Eta: floats[1], MaxRung: tail[0]}
			nr := tail[1]
			if nr < 0 || nr > MaxParticles {
				return fmt.Errorf("implausible rung count %d", nr)
			}
			if want := uint64(rungFixedSize + nr); length != want {
				return fmt.Errorf("rung section is %d bytes for %d rungs, want %d", length, nr, want)
			}
			if nr > 0 {
				b.Rungs = make([]uint8, nr)
				if _, err := io.ReadFull(dec, b.Rungs); err != nil {
					return fmt.Errorf("rungs: %w", err)
				}
			}
			if err := b.validate(c.Sys.N()); err != nil {
				return err
			}
			c.Block = b
			return nil
		}); err != nil {
			return nil, err
		}
	}

	if st := &c.State; !finite(st.Time, st.DT, st.Scale, st.T0, st.Age0, st.Theta, st.Eps, st.G,
		st.Hardware.PipeSeconds, st.Hardware.BusSeconds) {
		return nil, fmt.Errorf("ckpt: non-finite scalar state")
	}
	return c, nil
}

// readSection consumes one section, streaming the payload through the
// decoder's CRC tee and verifying the stored checksum after the parser
// has consumed exactly the declared length. The parse result is
// discarded by the caller if this returns an error, so corrupt payload
// bytes are never integrated.
func readSection(dec *snapio.Decoder, wantTag string, parse func(length uint64) error) error {
	var head [12]byte
	if _, err := io.ReadFull(dec, head[:]); err != nil {
		return fmt.Errorf("ckpt: reading section %s header: %w", wantTag, err)
	}
	if tag := head[:4]; string(tag) != wantTag {
		return fmt.Errorf("ckpt: section %q where %q expected", tag, wantTag)
	}
	length := le.Uint64(head[4:])
	if length > 8+uint64(MaxParticles)*bytesPerParticle {
		return fmt.Errorf("ckpt: section %s declares implausible length %d", wantTag, length)
	}
	dec.Reset()
	err := parse(length)
	if err == nil {
		err = dec.Err()
	}
	if err != nil {
		return fmt.Errorf("ckpt: section %s: %w", wantTag, err)
	}
	crc, n := dec.Sum()
	if n != int64(length) {
		return fmt.Errorf("ckpt: section %s parser consumed %d of %d bytes", wantTag, n, length)
	}
	var stored uint32
	if err := binary.Read(dec, le, &stored); err != nil {
		return fmt.Errorf("ckpt: section %s checksum: %w", wantTag, err)
	}
	if stored != crc {
		return fmt.Errorf("ckpt: section %s CRC mismatch (stored %#08x, computed %#08x): checkpoint is corrupt", wantTag, stored, crc)
	}
	return nil
}

// finite reports whether no value is NaN or ±Inf. Read applies it to
// the float scalar state: corrupt values that happen to pass CRC (a
// writer bug, not bit rot) must still never reach the integrator.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// WriteFile writes a checkpoint atomically: temp file, fsync, rename,
// directory fsync. A crash at any instant leaves either the previous
// file or the complete new one. Returns the bytes written.
func WriteFile(path string, c *Checkpoint) (int64, error) {
	return fsx.AtomicWriteFile(path, func(w io.Writer) error {
		return Write(w, c)
	})
}

// ReadFile loads and validates a checkpoint from the named file.
func ReadFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}
