// Package morton implements 3-D Morton (Z-order) keys. The tree build
// sorts particles along the Morton curve so that each octree cell owns
// a contiguous index range; Barnes' modified algorithm then gets its
// particle groups as slices, with no per-group copying. This is the
// standard key construction of Warren & Salmon's hashed octree.
package morton

import "repro/internal/vec"

// Bits is the number of bits of resolution per coordinate. 3*21 = 63
// bits fit in a uint64 key.
const Bits = 21

// maxCoord is the largest quantised coordinate value.
const maxCoord = (1 << Bits) - 1

// Key is a 63-bit Morton key: three 21-bit coordinates interleaved
// x0y0z0 x1y1z1 ... with z in the most significant position of each
// triple.
type Key uint64

// spread3 inserts two zero bits between each of the low 21 bits of v.
func spread3(v uint64) uint64 {
	v &= 0x1fffff // 21 bits
	v = (v | v<<32) & 0x1f00000000ffff
	v = (v | v<<16) & 0x1f0000ff0000ff
	v = (v | v<<8) & 0x100f00f00f00f00f
	v = (v | v<<4) & 0x10c30c30c30c30c3
	v = (v | v<<2) & 0x1249249249249249
	return v
}

// Encode interleaves three quantised coordinates (each < 2^21) into a key.
func Encode(ix, iy, iz uint32) Key {
	return Key(spread3(uint64(ix)) | spread3(uint64(iy))<<1 | spread3(uint64(iz))<<2)
}

// Quantize maps position p inside box to quantised coordinates. Points
// outside the box are clamped to its faces.
func Quantize(p vec.V3, box vec.Box) (ix, iy, iz uint32) {
	size := box.Size()
	q := func(v, lo, ext float64) uint32 {
		if ext <= 0 {
			return 0
		}
		f := (v - lo) / ext * (maxCoord + 1)
		if f < 0 {
			f = 0
		}
		if f > maxCoord {
			f = maxCoord
		}
		return uint32(f)
	}
	return q(p.X, box.Min.X, size.X), q(p.Y, box.Min.Y, size.Y), q(p.Z, box.Min.Z, size.Z)
}

// KeyFor returns the Morton key of position p within box.
func KeyFor(p vec.V3, box vec.Box) Key {
	ix, iy, iz := Quantize(p, box)
	return Encode(ix, iy, iz)
}

// OctantAtLevel returns the octant index (0..7) of the key at the given
// tree level; level 0 is the most significant triple (the root split).
// The octant bit layout matches vec.Box.Octant: bit0=X, bit1=Y, bit2=Z.
func (k Key) OctantAtLevel(level int) int {
	shift := uint(3 * (Bits - 1 - level))
	triple := (uint64(k) >> shift) & 7
	// Key layout has z in bit 2, y in bit 1, x in bit 0 of each triple,
	// matching Box.Octant already.
	return int(triple)
}

// KeysInto computes Morton keys for a position slice within box,
// writing into dst when its capacity suffices (the arena variant used
// by the reusable tree builder: steady-state builds allocate nothing
// here). It returns the filled slice, which callers must retain as the
// scratch for the next call.
func KeysInto(dst []Key, pos []vec.V3, box vec.Box) []Key {
	if cap(dst) < len(pos) {
		dst = make([]Key, len(pos))
	}
	dst = dst[:len(pos)]
	for i, p := range pos {
		dst[i] = KeyFor(p, box)
	}
	return dst
}

// SortOrderRadixInto returns the permutation that sorts the keys
// ascending, stably (equal keys keep their input order, so builds are
// deterministic), by an LSD radix sort over the 63 key bits (8 passes
// of 8 bits): O(N), and substantially faster than comparison sorting
// for the multi-million-particle builds of the headline run. a and b
// are caller-owned ping-pong permutation buffers (grown only when too
// small; nil allocates both). The returned slice — which holds the
// final permutation — aliases one of the two buffers, so callers
// reusing the scratch must consume (or copy) the result before the
// next call. With I = int32 the buffers take half the memory; the
// caller then keeps len(keys) below 2³¹.
func SortOrderRadixInto[I int | int32](keys []Key, a, b []I) []I {
	n := len(keys)
	if cap(a) < n {
		a = make([]I, n)
	}
	order := a[:n]
	for i := range order {
		order[i] = I(i)
	}
	if n < 2 {
		return order
	}
	if cap(b) < n {
		b = make([]I, n)
	}
	tmp := b[:n]
	var counts [256]int
	for pass := 0; pass < 8; pass++ {
		shift := uint(8 * pass)
		for i := range counts {
			counts[i] = 0
		}
		for _, idx := range order {
			counts[(uint64(keys[idx])>>shift)&0xff]++
		}
		// Skip passes where all keys share the byte (common for the
		// high bytes of shallow distributions).
		if counts[(uint64(keys[order[0]])>>shift)&0xff] == n {
			continue
		}
		total := 0
		for i := range counts {
			counts[i], total = total, total+counts[i]
		}
		for _, idx := range order {
			b := (uint64(keys[idx]) >> shift) & 0xff
			tmp[counts[b]] = idx
			counts[b]++
		}
		order, tmp = tmp, order
	}
	return order
}
