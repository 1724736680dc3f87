// Package snapio reads and writes particle snapshots in a small
// versioned binary format (little-endian, fixed header). The headline
// run writes snapshots for restart and for the analysis tools
// (cmd/snapstat: the correlation function, the paper's Figure 4).
//
// Format version 2 (current) adds the integration timestep to the
// header — so resuming from a snapshot no longer needs a hand-typed
// -dt — and a CRC-32C trailer over everything before it, so a torn or
// bit-rotted snapshot is detected instead of silently integrated.
// Version-1 files (no DT, no checksum) remain readable. Files are
// written atomically (temp + fsync + rename): a crash mid-write leaves
// the previous snapshot, never a torn one.
package snapio

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/fsx"
	"repro/internal/nbody"
	"repro/internal/vec"
)

// Magic identifies snapshot files ("G5SN").
const Magic = 0x4735534e

// Version is the current format version (DT in header, CRC trailer).
const Version = 2

// versionLegacy is the original format: no DT field, no checksum.
const versionLegacy = 1

// Header precedes the particle payload.
type Header struct {
	// N is the particle count.
	N int64
	// Time is the simulation time (internal units).
	Time float64
	// Step is the integration step index.
	Step int64
	// Scale is the cosmological scale factor (0 for non-cosmological
	// runs).
	Scale float64
	// Eps and Theta record the run parameters for provenance.
	Eps, Theta float64
	// DT is the integration timestep (version >= 2; 0 in legacy files,
	// whose resume therefore requires an explicit timestep).
	DT float64
}

// headerV1 is the version-1 header layout (no DT).
type headerV1 struct {
	N          int64
	Time       float64
	Step       int64
	Scale      float64
	Eps, Theta float64
}

// Write stores the system and header to w in the current format.
func Write(w io.Writer, h Header, s *nbody.System) error {
	h.N = int64(s.N())
	// magic and version, header, Pos, Vel, Mass, ID, CRC trailer
	enc := NewEncoder(w, 8+binary.Size(h)+s.N()*(24+24+8+8)+4)
	var pre [8]byte
	le.PutUint32(pre[0:], Magic)
	le.PutUint32(pre[4:], Version)
	enc.Write(pre[:])
	if err := binary.Write(enc, le, h); err != nil {
		return err
	}
	enc.V3s(s.Pos)
	enc.V3s(s.Vel)
	enc.F64s(s.Mass)
	enc.I64s(s.ID)
	// CRC trailer over everything above.
	crc, _ := enc.Sum()
	enc.Write(le.AppendUint32(nil, crc))
	return enc.Flush()
}

// Read loads a snapshot from r. For version-2 files the CRC trailer is
// verified; any mismatch is an error — corruption is never silently
// returned as particle data.
func Read(r io.Reader) (Header, *nbody.System, error) { return ReadSized(r, -1) }

// ReadSized is Read from a stream of size bytes (< 0: unknown): with the
// size known, each particle array is allocated once.
func ReadSized(r io.Reader, size int64) (Header, *nbody.System, error) {
	h, s, err := read(NewDecoder(r, size))
	if err != nil {
		return Header{}, nil, fmt.Errorf("snapio: %w", err)
	}
	return h, s, nil
}

func read(dec *Decoder) (h Header, s *nbody.System, err error) {
	var pre [8]byte
	if _, err := io.ReadFull(dec, pre[:]); err != nil {
		return h, nil, fmt.Errorf("reading magic and version: %w", err)
	}
	if magic := le.Uint32(pre[0:]); magic != Magic {
		return h, nil, fmt.Errorf("bad magic %#x", magic)
	}
	version := le.Uint32(pre[4:])
	switch version {
	case versionLegacy:
		var h1 headerV1
		err = binary.Read(dec, le, &h1)
		h = Header{N: h1.N, Time: h1.Time, Step: h1.Step, Scale: h1.Scale,
			Eps: h1.Eps, Theta: h1.Theta}
	case Version:
		err = binary.Read(dec, le, &h)
	default:
		err = fmt.Errorf("unsupported version %d", version)
	}
	if err != nil {
		return h, nil, err
	}
	if h.N < 0 || h.N > 1<<31 {
		return h, nil, fmt.Errorf("implausible particle count %d", h.N)
	}
	// The decoder trusts the header's N only as far as the rest of the
	// stream can hold it: a forged header must fail with an error, not a
	// multi-gigabyte allocation.
	n := int(h.N)
	s = &nbody.System{
		Pos:  dec.V3s(n, "positions"),
		Vel:  dec.V3s(n, "velocities"),
		Mass: dec.F64s(n, "masses"),
		ID:   dec.I64s(n, "ids"),
	}
	if err := dec.Err(); err != nil {
		return h, nil, err
	}
	if version >= 2 {
		crc, _ := dec.Sum()
		var stored uint32
		if err := binary.Read(dec, le, &stored); err != nil {
			return h, nil, fmt.Errorf("reading checksum trailer: %w", err)
		}
		if stored != crc {
			return h, nil, fmt.Errorf("CRC mismatch (stored %#08x, computed %#08x): snapshot is corrupt", stored, crc)
		}
	}
	s.Acc, s.Pot = make([]vec.V3, n), make([]float64, n)
	return h, s, nil
}

// WriteFile writes a snapshot to the named file atomically: a crash at
// any instant leaves either the previous file or the complete new one,
// never a torn mix.
func WriteFile(path string, h Header, s *nbody.System) error {
	_, err := fsx.AtomicWriteFile(path, func(w io.Writer) error {
		return Write(w, h, s)
	})
	return err
}

// ReadFile loads a snapshot from the named file.
func ReadFile(path string) (Header, *nbody.System, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return Header{}, nil, err
	}
	return ReadSized(f, fi.Size())
}
