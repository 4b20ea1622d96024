package dm

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"dmesh/internal/geom"
)

// Wire format for TilePatch (DMTP v2) — the unit a cluster shard ships to
// the router, which stitches the decoded patches with StitchTiles exactly
// as it would stitch locally materialized ones.
//
// The wire carries what StitchTiles reads and nothing else: the header,
// each live node's ID and position, the intra-tile edges and triangles,
// and the seam out-pairs. The record fields only a store query needs
// (ERaw/ELow/EHigh, tree links, wings, MBR, connection lists) stay on the
// shard. Layout (little endian; every ID is non-negative):
//
//	magic "DMTP", version uvarint (2)
//	Rect (4 x float64 bits), E (float64 bits), FetchedRecords uvarint
//	node count uvarint, then per node in ascending ID order:
//	  ID - previous ID uvarint (>= 1; the first is taken against -1)
//	  Pos x, y, z (float64 bits)
//	edges, as pair runs (below)
//	triangle count uvarint, then per triangle in ascending (A, B, C) order:
//	  A - previous A uvarint (first against 0); B - A; C - B uvarints (>= 1)
//	out-pairs, as pair runs
//
// A pair list sorted by (a, b) is coded as runs of equal a:
//
//	pair count uvarint, then until that many pairs are read:
//	  a - previous a uvarint (>= 1; the first is taken against -1)
//	  run length uvarint (>= 1)
//	  first b - a as a zigzag varint, then each further b as
//	  b - previous b uvarint (>= 1)
//
// Positions travel as raw IEEE-754 bits and round-trip bit-exactly. The
// encoding is deterministic and the decoder accepts only what the encoder
// emits — minimal varints, strictly ascending IDs, pairs and triangles —
// so byte equality is value equality: a body that decodes re-encodes to
// the identical bytes, and responses are byte-comparable across shards.
const (
	tileWireMagic   = "DMTP"
	tileWireVersion = 2
)

// EncodeTilePatch serializes tp into the deterministic binary wire form
// decodable with DecodeTilePatch. tp must be a patch as MaterializeTile
// (or DecodeTilePatch) builds it: edges, triangles and out-pairs sorted,
// IDs non-negative.
func EncodeTilePatch(tp *TilePatch) []byte {
	buf := make([]byte, 0, 64+27*len(tp.Nodes)+2*(len(tp.edges)+len(tp.outPairs))+4*len(tp.tris))
	buf = append(buf, tileWireMagic...)
	buf = binary.AppendUvarint(buf, tileWireVersion)
	buf = appendF64(buf, tp.Rect.MinX, tp.Rect.MinY, tp.Rect.MaxX, tp.Rect.MaxY, tp.E)
	buf = binary.AppendUvarint(buf, uint64(tp.FetchedRecords))

	ids := make([]int64, 0, len(tp.Nodes))
	for id := range tp.Nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	prev := int64(-1)
	for _, id := range ids {
		p := tp.Nodes[id].Pos
		buf = binary.AppendUvarint(buf, uint64(id-prev))
		buf = appendF64(buf, p.X, p.Y, p.Z)
		prev = id
	}

	buf = appendPairRuns(buf, tp.edges)
	buf = binary.AppendUvarint(buf, uint64(len(tp.tris)))
	prev = 0
	for _, t := range tp.tris {
		buf = binary.AppendUvarint(buf, uint64(t.A-prev))
		buf = binary.AppendUvarint(buf, uint64(t.B-t.A))
		buf = binary.AppendUvarint(buf, uint64(t.C-t.B))
		prev = t.A
	}
	return appendPairRuns(buf, tp.outPairs)
}

func appendF64(buf []byte, vs ...float64) []byte {
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// appendPairRuns codes a pair list sorted by (a, b) as runs of equal a.
func appendPairRuns(buf []byte, pairs [][2]int64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(pairs)))
	prevA := int64(-1)
	for i := 0; i < len(pairs); {
		a := pairs[i][0]
		j := i + 1
		for j < len(pairs) && pairs[j][0] == a {
			j++
		}
		buf = binary.AppendUvarint(buf, uint64(a-prevA))
		buf = binary.AppendUvarint(buf, uint64(j-i))
		b := pairs[i][1]
		buf = binary.AppendVarint(buf, b-a)
		for i++; i < j; i++ {
			buf = binary.AppendUvarint(buf, uint64(pairs[i][1]-b))
			b = pairs[i][1]
		}
		prevA = a
	}
	return buf
}

// tileWireReader is a bounds-checked cursor over an encoded patch. The
// first failure sticks, so a decode loop checks err once per element
// rather than per field. Every failure wraps ErrCorrupt and names the
// section being read; allocation sizes are validated against the bytes
// remaining, so truncated or hostile inputs fail cleanly instead of
// panicking or ballooning memory.
type tileWireReader struct {
	b       []byte
	off     int
	section string
	err     error
}

func (r *tileWireReader) corrupt(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("dm: tile patch wire: %s in %s at offset %d: %w", what, r.section, r.off, ErrCorrupt)
	}
}

// uvarint reads one minimally encoded uvarint.
func (r *tileWireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	if off := r.off; off < len(r.b) && r.b[off] < 0x80 { // one byte: most deltas
		r.off = off + 1
		return uint64(r.b[off])
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.corrupt("bad uvarint")
		return 0
	}
	// A zero final byte adds no value bits: the value has a shorter
	// spelling, and accepting this one would break byte == value equality.
	if n > 1 && r.b[r.off+n-1] == 0 {
		r.corrupt("non-minimal uvarint")
		return 0
	}
	r.off += n
	return v
}

// step reads a uvarint delta that must be at least min and returns
// prev + delta, rejecting overflow past MaxInt64.
func (r *tileWireReader) step(prev int64, min uint64) int64 {
	d := r.uvarint()
	next := prev + int64(d)
	if d < min || d > math.MaxInt64 || next < prev {
		r.corrupt("bad delta")
	}
	return next
}

func (r *tileWireReader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.corrupt("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

// count opens a section: it reads the collection length and sanity-bounds
// it — each element occupies at least minBytes on the wire, so a count the
// remaining bytes cannot hold is corruption, not an allocation request.
func (r *tileWireReader) count(section string, minBytes int) int {
	r.section = section
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(len(r.b)-r.off)/uint64(minBytes) {
		r.corrupt("impossible count")
		return 0
	}
	return int(v)
}

// pairRuns reads a run-coded pair list into one backing array.
func (r *tileWireReader) pairRuns(section string) [][2]int64 {
	n := r.count(section, 1)
	if n == 0 {
		return nil
	}
	pairs := make([][2]int64, n)
	a := int64(-1)
	for i := 0; i < n && r.err == nil; {
		a = r.step(a, 1)
		run := r.uvarint()
		if run == 0 || run > uint64(n-i) {
			r.corrupt("bad run length")
			break
		}
		// First b: a zigzag offset from a. a is non-negative, so an
		// overflowing sum wraps negative like any other bad offset.
		u := r.uvarint()
		b := a + (int64(u>>1) ^ -int64(u&1))
		if b < 0 {
			r.corrupt("bad offset")
		}
		pairs[i] = [2]int64{a, b}
		i++
		for end := i + int(run) - 1; i < end && r.err == nil; i++ {
			b = r.step(b, 1)
			pairs[i] = [2]int64{a, b}
		}
	}
	return pairs
}

// DecodeTilePatch parses a patch encoded by EncodeTilePatch. The decode
// is panic-free on arbitrary input: corruption — a v1 body included —
// surfaces as an error wrapping ErrCorrupt, and any input that decodes
// re-encodes to the identical bytes.
//
// A decoded patch is stitch-ready, not re-materializable: its Nodes carry
// ID and Pos only (no LOD interval, tree links, MBR or connection list),
// which is all StitchTiles and EncodeTilePatch read. It must not be used
// where a store-materialized patch's records are expected.
//
// The patch is built from a handful of allocations whatever its size:
// Nodes is pre-sized and points into one []Node slab, and edges,
// triangles and out-pairs each own one backing array.
func DecodeTilePatch(b []byte) (*TilePatch, error) {
	if len(b) < len(tileWireMagic) || string(b[:len(tileWireMagic)]) != tileWireMagic {
		return nil, fmt.Errorf("dm: tile patch wire: bad magic: %w", ErrCorrupt)
	}
	r := &tileWireReader{b: b, off: len(tileWireMagic), section: "header"}
	if v := r.uvarint(); r.err == nil && v != tileWireVersion {
		return nil, fmt.Errorf("dm: tile patch wire: unsupported version %d: %w", v, ErrCorrupt)
	}
	tp := &TilePatch{}
	tp.Rect.MinX, tp.Rect.MinY = r.f64(), r.f64()
	tp.Rect.MaxX, tp.Rect.MaxY = r.f64(), r.f64()
	tp.E = r.f64()
	if v := r.uvarint(); v > math.MaxInt {
		r.corrupt("fetched records out of range")
	} else {
		tp.FetchedRecords = int(v)
	}

	nNodes := r.count("nodes", 1+3*8)
	slab := make([]Node, nNodes)
	tp.Nodes = make(map[int64]*Node, nNodes)
	id := int64(-1)
	for i := 0; i < nNodes && r.err == nil; i++ {
		id = r.step(id, 1)
		n := &slab[i]
		n.ID = id
		n.Pos.X, n.Pos.Y, n.Pos.Z = r.f64(), r.f64(), r.f64()
		tp.Nodes[id] = n
	}

	tp.edges = r.pairRuns("edges")
	if nTris := r.count("triangles", 3); nTris > 0 {
		tp.tris = make([]geom.Triangle, nTris)
		var prev geom.Triangle
		for i := 0; i < nTris && r.err == nil; i++ {
			var t geom.Triangle
			t.A = r.step(prev.A, 0)
			t.B = r.step(t.A, 1)
			t.C = r.step(t.B, 1)
			if i > 0 && t.A == prev.A && (t.B < prev.B || (t.B == prev.B && t.C <= prev.C)) {
				r.corrupt("out of order")
			}
			tp.tris[i], prev = t, t
		}
	}
	tp.outPairs = r.pairRuns("out-pairs")
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(b) {
		return nil, fmt.Errorf("dm: tile patch wire: %d trailing bytes: %w", len(b)-r.off, ErrCorrupt)
	}
	return tp, nil
}
