// Package wire is the one byte-level cursor every slice decoder in the
// repo reads through — trace wire (DMTW), tile patches (DMTP), packed
// store records and progressive-stream frames (DMPS) — and the append
// helpers their encoders write with. The contract, the same for every
// format:
//
//   - Bounded: every read is checked against the buffer; a count is
//     checked against the bytes that remain before anything is allocated
//     for it (Count), so hostile input costs what it sent.
//   - Sticky: the first failure is recorded and every later read returns
//     zero without advancing, so a decode loop checks Err once per element
//     and never panics on a short buffer.
//   - Canonical: a varint has exactly one accepted spelling (the minimal
//     one) and a float exactly one (its dyadic index when it has one, raw
//     bits otherwise), so a format whose decoder also orders its records
//     has byte equality == value equality.
//   - One sentinel: every failure wraps ErrCorrupt.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// ErrCorrupt is wrapped by every decode failure of every wire format:
// bytes that cannot be an encoder's output — truncated, overlong,
// non-canonical, out of order, or trailing.
var ErrCorrupt = errors.New("corrupt encoding")

// Reader is a bounds-checked cursor over one encoded buffer. The zero
// Reader reads an empty buffer; build one with NewReader.
type Reader struct {
	b       []byte
	off     int
	format  string
	section string
	err     error
}

// NewReader returns a cursor at the start of b. format names the codec in
// error text ("dm: tile patch wire").
func NewReader(format string, b []byte) Reader {
	return Reader{b: b, format: format, section: "header"}
}

// Section names the part of the buffer being read, for error text.
func (r *Reader) Section(name string) { r.section = name }

// Corruptf records a failure at the current offset unless one is already
// recorded. Codecs report their own validation failures through it so
// they share the cursor's stickiness and sentinel.
func (r *Reader) Corruptf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%s: %s in %s at offset %d: %w",
			r.format, fmt.Sprintf(format, args...), r.section, r.off, ErrCorrupt)
	}
}

// Err returns the first failure, nil while the buffer has read cleanly.
func (r *Reader) Err() error { return r.err }

// Len returns the unread byte count.
func (r *Reader) Len() int { return len(r.b) - r.off }

// Done ends the decode: the first failure if there was one, else a
// failure if unread bytes remain.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.b) {
		r.section = "trailer"
		r.Corruptf("%d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

// Magic consumes the format's fixed leading bytes.
func (r *Reader) Magic(m string) {
	if r.err != nil {
		return
	}
	if r.Len() < len(m) || string(r.b[r.off:r.off+len(m)]) != m {
		r.Corruptf("bad magic")
		return
	}
	r.off += len(m)
}

// Uvarint reads one minimally encoded uvarint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	if off := r.off; off < len(r.b) && r.b[off] < 0x80 { // one byte: most deltas
		r.off = off + 1
		return uint64(r.b[off])
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.Corruptf("truncated or overlong uvarint")
		return 0
	}
	// A zero final byte adds no value bits: the value has a shorter
	// spelling, and accepting this one would break byte == value equality.
	if r.b[r.off+n-1] == 0 {
		r.Corruptf("non-minimal uvarint")
		return 0
	}
	r.off += n
	return v
}

// zigzag maps signed values to unsigned so small magnitudes of either
// sign take short varints.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// Varint reads one zigzag-coded signed varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil || r.Len() < 1 {
		r.Corruptf("truncated 1-byte field")
		return 0
	}
	r.off++
	return r.b[r.off-1]
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if r.err != nil || r.Len() < 8 {
		r.Corruptf("truncated 8-byte field")
		return 0
	}
	r.off += 8
	return binary.LittleEndian.Uint64(r.b[r.off-8:])
}

// F64 reads a float64 as its raw IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Count opens a section: it reads the collection length and bounds it —
// each element occupies at least minBytes on the wire, so a count the
// remaining bytes cannot hold is corruption, not an allocation request.
func (r *Reader) Count(section string, minBytes int) int {
	r.section = section
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(r.Len())/uint64(minBytes) {
		r.Corruptf("impossible count %d", v)
		return 0
	}
	return int(v)
}

// Step reads a uvarint delta that must be at least min and returns
// prev + delta, rejecting overflow past MaxInt64. Ascending ID lists are
// chains of Steps: min 1 makes them strictly ascending.
func (r *Reader) Step(prev int64, min uint64) int64 {
	d := r.Uvarint()
	next := prev + int64(d)
	if d < min || d > math.MaxInt64 || next < prev {
		r.Corruptf("bad delta")
		return prev
	}
	return next
}

// ReadUvarint reads one minimally encoded uvarint from a byte stream —
// the length-prefixed framing of DMPS, the one format that is not decoded
// from a slice. A stream that ends returns the reader's own error (a cut
// connection is not corruption); an overlong or non-minimal spelling
// wraps ErrCorrupt.
func ReadUvarint(br io.ByteReader) (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		b, err := br.ReadByte()
		if err != nil {
			return 0, err
		}
		if b < 0x80 {
			if shift == 63 && b > 1 {
				break
			}
			if b == 0 && shift > 0 {
				return 0, fmt.Errorf("non-minimal uvarint: %w", ErrCorrupt)
			}
			return v | uint64(b)<<shift, nil
		}
		v |= uint64(b&0x7f) << shift
	}
	return 0, fmt.Errorf("overlong uvarint: %w", ErrCorrupt)
}

// AppendUvarint appends v in the minimal spelling Uvarint accepts.
func AppendUvarint(buf []byte, v uint64) []byte { return binary.AppendUvarint(buf, v) }

// AppendVarint appends v zigzag-coded, as Varint reads it.
func AppendVarint(buf []byte, v int64) []byte { return binary.AppendUvarint(buf, zigzag(v)) }

// AppendU64 appends v little-endian.
func AppendU64(buf []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(buf, v) }

// AppendF64 appends each value's raw IEEE-754 bits.
func AppendF64(buf []byte, vs ...float64) []byte {
	for _, v := range vs {
		buf = AppendU64(buf, math.Float64bits(v))
	}
	return buf
}

// UvarintLen returns how many bytes AppendUvarint emits for v.
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// VarintLen returns how many bytes AppendVarint emits for v.
func VarintLen(v int64) int { return UvarintLen(zigzag(v)) }

// The dyadic float fast path: v is storable as an integer grid index
// when v*2^12 round-trips exactly. 2^12 captures the terrain grids
// (i/2^k for sizes 2^k+1) and several collapse-midpoint levels while
// keeping indices of unit-square coordinates at 2-byte varints.
const (
	dyadicShift = 12
	dyadicScale = float64(int64(1) << dyadicShift)
	// dyadicMaxM bounds the stored index so its varint never exceeds 6
	// bytes (beyond that raw 8-byte floats are as small and simpler).
	dyadicMaxM = int64(1) << 41
)

// DyadicIndex reports whether v is exactly representable as a dyadic
// grid index m = v*2^12: m must be integral, in range, and m/2^12 must
// restore v's exact bit pattern (which excludes NaNs, infinities, and
// -0.0 by construction). An encoder sends such a v as AppendVarint(m)
// and flags it; everything else travels as AppendF64.
func DyadicIndex(v float64) (int64, bool) {
	m := v * dyadicScale
	if m != math.Trunc(m) || m > float64(dyadicMaxM) || m < -float64(dyadicMaxM) {
		return 0, false
	}
	k := int64(m)
	if math.Float64bits(float64(k)/dyadicScale) != math.Float64bits(v) {
		return 0, false
	}
	return k, true
}

// Float reads a float64 an encoder flagged as a dyadic index or as raw
// bits, accepting only the spelling the encoder would have chosen: an
// index must round-trip through DyadicIndex, and raw bits must have no
// index.
func (r *Reader) Float(dyadic bool) float64 {
	if !dyadic {
		v := r.F64()
		if _, ok := DyadicIndex(v); ok {
			r.Corruptf("raw float has a dyadic spelling")
		}
		return v
	}
	m := r.Varint()
	v := float64(m) / dyadicScale
	if k, ok := DyadicIndex(v); !ok || k != m {
		r.Corruptf("dyadic index out of range")
	}
	return v
}
