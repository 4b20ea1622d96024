package dm

import (
	"math"
	"sort"

	"dmesh/internal/geom"
	"dmesh/internal/wire"
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
	buf = wire.AppendUvarint(buf, tileWireVersion)
	buf = wire.AppendF64(buf, tp.Rect.MinX, tp.Rect.MinY, tp.Rect.MaxX, tp.Rect.MaxY, tp.E)
	buf = wire.AppendUvarint(buf, uint64(tp.FetchedRecords))

	ids := make([]int64, 0, len(tp.Nodes))
	for id := range tp.Nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	buf = wire.AppendUvarint(buf, uint64(len(ids)))
	prev := int64(-1)
	for _, id := range ids {
		p := tp.Nodes[id].Pos
		buf = wire.AppendUvarint(buf, uint64(id-prev))
		buf = wire.AppendF64(buf, p.X, p.Y, p.Z)
		prev = id
	}

	buf = appendPairRuns(buf, tp.edges)
	buf = AppendTriangleSet(buf, tp.tris)
	return appendPairRuns(buf, tp.outPairs)
}

// AppendTriangleSet codes canonical triangles (A < B < C) sorted by
// (A, B, C) as the DMTP layout above describes. DMPS frames code their
// triangle sets the same way.
func AppendTriangleSet(buf []byte, ts []geom.Triangle) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(ts)))
	prevA := int64(0)
	for _, t := range ts {
		buf = wire.AppendUvarint(buf, uint64(t.A-prevA))
		buf = wire.AppendUvarint(buf, uint64(t.B-t.A))
		buf = wire.AppendUvarint(buf, uint64(t.C-t.B))
		prevA = t.A
	}
	return buf
}

// ReadTriangleSet reads what AppendTriangleSet wrote into one backing
// array, accepting only canonical triangles in strictly ascending order.
func ReadTriangleSet(r *wire.Reader, section string) []geom.Triangle {
	n := r.Count(section, 3)
	if n == 0 {
		return nil
	}
	ts := make([]geom.Triangle, n)
	var prev geom.Triangle
	for i := 0; i < n && r.Err() == nil; i++ {
		var t geom.Triangle
		t.A = r.Step(prev.A, 0)
		t.B = r.Step(t.A, 1)
		t.C = r.Step(t.B, 1)
		if i > 0 && t.A == prev.A && (t.B < prev.B || (t.B == prev.B && t.C <= prev.C)) {
			r.Corruptf("out of order")
		}
		ts[i], prev = t, t
	}
	return ts
}

// appendPairRuns codes a pair list sorted by (a, b) as runs of equal a.
func appendPairRuns(buf []byte, pairs [][2]int64) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(pairs)))
	prevA := int64(-1)
	for i := 0; i < len(pairs); {
		a := pairs[i][0]
		j := i + 1
		for j < len(pairs) && pairs[j][0] == a {
			j++
		}
		buf = wire.AppendUvarint(buf, uint64(a-prevA))
		buf = wire.AppendUvarint(buf, uint64(j-i))
		b := pairs[i][1]
		buf = wire.AppendVarint(buf, b-a)
		for i++; i < j; i++ {
			buf = wire.AppendUvarint(buf, uint64(pairs[i][1]-b))
			b = pairs[i][1]
		}
		prevA = a
	}
	return buf
}

// readPairRuns reads a run-coded pair list into one backing array.
func readPairRuns(r *wire.Reader, section string) [][2]int64 {
	n := r.Count(section, 1)
	if n == 0 {
		return nil
	}
	pairs := make([][2]int64, n)
	a := int64(-1)
	for i := 0; i < n && r.Err() == nil; {
		a = r.Step(a, 1)
		run := r.Uvarint()
		if run == 0 || run > uint64(n-i) {
			r.Corruptf("bad run length")
			break
		}
		// First b: a zigzag offset from a. a is non-negative, so an
		// overflowing sum wraps negative like any other bad offset.
		b := a + r.Varint()
		if b < 0 {
			r.Corruptf("bad offset")
		}
		pairs[i] = [2]int64{a, b}
		i++
		for end := i + int(run) - 1; i < end && r.Err() == nil; i++ {
			b = r.Step(b, 1)
			pairs[i] = [2]int64{a, b}
		}
	}
	return pairs
}

// DecodeTilePatch parses a patch encoded by EncodeTilePatch. The decode
// is panic-free on arbitrary input: corruption — a v1 body included —
// surfaces as an error wrapping wire.ErrCorrupt, and any input that decodes
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
	r := wire.NewReader("dm: tile patch wire", b)
	r.Magic(tileWireMagic)
	if v := r.Uvarint(); v != tileWireVersion {
		r.Corruptf("unsupported version %d", v)
	}
	tp := &TilePatch{}
	tp.Rect.MinX, tp.Rect.MinY = r.F64(), r.F64()
	tp.Rect.MaxX, tp.Rect.MaxY = r.F64(), r.F64()
	tp.E = r.F64()
	if v := r.Uvarint(); v > math.MaxInt {
		r.Corruptf("fetched records out of range")
	} else {
		tp.FetchedRecords = int(v)
	}

	nNodes := r.Count("nodes", 1+3*8)
	slab := make([]Node, nNodes)
	tp.Nodes = make(map[int64]*Node, nNodes)
	id := int64(-1)
	for i := 0; i < nNodes && r.Err() == nil; i++ {
		id = r.Step(id, 1)
		n := &slab[i]
		n.ID = id
		n.Pos.X, n.Pos.Y, n.Pos.Z = r.F64(), r.F64(), r.F64()
		tp.Nodes[id] = n
	}

	tp.edges = readPairRuns(&r, "edges")
	tp.tris = ReadTriangleSet(&r, "triangles")
	tp.outPairs = readPairRuns(&r, "out-pairs")
	if err := r.Done(); err != nil {
		return nil, err
	}
	return tp, nil
}
