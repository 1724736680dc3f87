package snapio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"repro/internal/vec"
)

// The stream codec shared by snapshots and checkpoints (package ckpt):
// per direction one buffered CRC-32C tee with chunked little-endian
// coding of []vec.V3, []float64 and []int64, through at most BufSize of
// buffer. The Encoder codes straight into its write buffer, the Decoder
// through one reused chunk. Every array is a run of 8-byte words (three
// per V3), so both file formats are fixed by the order in which their
// writers call these.

// BufSize is the codec's I/O buffer in both directions: it caps an
// Encoder's write buffer and sizes a Decoder's read buffer.
const BufSize = 64 << 10

// chunkBytes sizes the Decoder's reusable chunk: a multiple of 24 so any
// element type packs exactly.
const chunkBytes = 24 << 11

// growCap bounds the capacity a reader commits to an array the rest of
// the stream may not hold; beyond it the array grows by append, so a
// forged particle count fails on the short stream instead of allocating
// N-sized memory.
const growCap = 1 << 16

var (
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
	le         = binary.LittleEndian
)

// span is the running CRC-32C and byte count of one checksummed span:
// a whole snapshot, or one checkpoint section.
type span struct {
	crc uint32
	n   int64
}

func (s *span) add(p []byte) {
	s.crc = crc32.Update(s.crc, castagnoli, p)
	s.n += int64(len(p))
}

// Reset starts a new span.
func (s *span) Reset() { *s = span{} }

// Sum returns the CRC-32C and byte count since the last Reset.
func (s *span) Sum() (crc uint32, n int64) { return s.crc, s.n }

// Encoder buffers writes to a stream, tees them into a span and encodes
// particle arrays into its buffer. It is sticky on errors: after the
// first failed write the rest are dropped and Flush reports that
// failure, so callers check once, at the end.
type Encoder struct {
	span
	w   io.Writer // nil: the whole stream stays in buf
	buf []byte
	err error
}

// NewEncoder returns an Encoder writing to w; Flush completes it. size
// is the stream's length when known: the buffer takes that much, up to
// BufSize. With a nil w the Encoder keeps the whole stream for Bytes.
func NewEncoder(w io.Writer, size int) *Encoder {
	if w != nil {
		size = min(size, BufSize)
	}
	// At least one V3 fits, so an array always makes progress.
	return &Encoder{w: w, buf: make([]byte, 0, max(size, 24))}
}

func (e *Encoder) Write(p []byte) (int, error) {
	e.add(p)
	e.room(len(p))
	if len(p) <= cap(e.buf)-len(e.buf) {
		e.buf = append(e.buf, p...)
	} else if e.err == nil { // larger than the whole buffer: write it through
		_, e.err = e.w.Write(p)
	}
	if e.err != nil {
		return 0, e.err
	}
	return len(p), nil
}

// room makes space for n more bytes: it writes the buffer out when too
// full, or grows it when there is no writer.
func (e *Encoder) room(n int) {
	if cap(e.buf)-len(e.buf) >= n {
		return
	}
	if e.w == nil {
		e.buf = slices.Grow(e.buf, n)
		return
	}
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// Flush writes out what is buffered and returns the first write error.
func (e *Encoder) Flush() error {
	if e.w != nil {
		e.room(cap(e.buf) + 1) // more than fits: writes the buffer out
	}
	return e.err
}

// Bytes returns the stream of an Encoder made with a nil writer.
func (e *Encoder) Bytes() []byte { return e.buf }

// array writes n elements of size bytes each, put encoding element i.
func (e *Encoder) array(n, size int, put func(b []byte, i int)) {
	for i := 0; i < n; {
		e.room(size)
		lo := len(e.buf)
		k := min(n-i, (cap(e.buf)-lo)/size)
		b := e.buf[lo : lo+k*size]
		for j := 0; j < k; j++ {
			put(b[j*size:], i+j)
		}
		e.add(b)
		e.buf, i = e.buf[:lo+k*size], i+k
	}
}

// V3s writes v as 3×float64 per element.
func (e *Encoder) V3s(v []vec.V3) {
	e.array(len(v), 24, func(b []byte, i int) {
		le.PutUint64(b[0:], math.Float64bits(v[i].X))
		le.PutUint64(b[8:], math.Float64bits(v[i].Y))
		le.PutUint64(b[16:], math.Float64bits(v[i].Z))
	})
}

// F64s writes v as one float64 per element.
func (e *Encoder) F64s(v []float64) {
	e.array(len(v), 8, func(b []byte, i int) { le.PutUint64(b, math.Float64bits(v[i])) })
}

// I64s writes v as one int64 per element.
func (e *Encoder) I64s(v []int64) {
	e.array(len(v), 8, func(b []byte, i int) { le.PutUint64(b, uint64(v[i])) })
}

// Decoder buffers reads from a stream, tees them into a span and
// decodes particle arrays. The array methods are sticky on errors: after
// the first short read they return nil without reading, and Err reports
// that failure, so a parser reads every array and checks once.
type Decoder struct {
	span
	br    *bufio.Reader
	chunk []byte
	left  int64 // bytes of the stream not yet read; < 0: unknown
	err   error
}

// NewDecoder returns a Decoder reading from r. size is the stream's
// length, < 0 when unknown: an array the rest of a stream of known
// length can hold is allocated once.
func NewDecoder(r io.Reader, size int64) *Decoder {
	return &Decoder{br: bufio.NewReaderSize(r, BufSize), chunk: make([]byte, chunkBytes), left: size}
}

func (d *Decoder) Read(p []byte) (int, error) {
	n, err := d.br.Read(p)
	d.add(p[:n])
	d.left -= int64(n)
	return n, err
}

// Err returns the first array-read failure.
func (d *Decoder) Err() error { return d.err }

// readArray reads n elements of size bytes each, get decoding one. The
// result is allocated once when the rest of the stream holds it, else it
// grows as data arrives (see growCap); what names the array in the error
// of a short stream.
func readArray[T any](d *Decoder, n, size int, what string, get func(b []byte) T) []T {
	if d.err != nil {
		return nil
	}
	c := min(n, growCap)
	if int64(n)*int64(size) <= d.left {
		c = n
	}
	out := make([]T, 0, c)
	per := len(d.chunk) / size
	for len(out) < n {
		b := d.chunk[:min(n-len(out), per)*size]
		if _, err := io.ReadFull(d, b); err != nil {
			d.err = fmt.Errorf("%s: %w", what, err)
			return nil
		}
		for ; len(b) > 0; b = b[size:] {
			out = append(out, get(b))
		}
	}
	return out
}

// V3s reads n elements written by Encoder.V3s.
func (d *Decoder) V3s(n int, what string) []vec.V3 {
	return readArray(d, n, 24, what, func(b []byte) vec.V3 {
		return vec.V3{
			X: math.Float64frombits(le.Uint64(b[0:])),
			Y: math.Float64frombits(le.Uint64(b[8:])),
			Z: math.Float64frombits(le.Uint64(b[16:])),
		}
	})
}

// F64s reads n elements written by Encoder.F64s.
func (d *Decoder) F64s(n int, what string) []float64 {
	return readArray(d, n, 8, what, func(b []byte) float64 { return math.Float64frombits(le.Uint64(b)) })
}

// I64s reads n elements written by Encoder.I64s.
func (d *Decoder) I64s(n int, what string) []int64 {
	return readArray(d, n, 8, what, func(b []byte) int64 { return int64(le.Uint64(b)) })
}
