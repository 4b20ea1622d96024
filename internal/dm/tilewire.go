package dm

import (
	"math"

	"dmesh/internal/geom"
	"dmesh/internal/wire"
)

// Wire format for TilePatch (DMTP v3) — the unit a cluster shard ships to
// the router, which stitches the decoded patches with StitchTiles exactly
// as it would stitch locally materialized ones.
//
// The wire carries what StitchTiles reads and nothing else: the header,
// each live node's ID and position, the intra-tile edges, and the seam
// out-pairs a stitch can use, those whose far endpoint is live at E (the
// tile's rung of the store's ladder). Triangles do not travel: they are
// the 3-cliques of the edges, which the stitch recomputes over the merged
// edge list. The record fields only a store query needs (ERaw/ELow/EHigh,
// tree links, wings, MBR, connection lists) stay on the shard. Layout
// (little endian; every ID is non-negative):
//
//	magic "DMTP", version uvarint (3)
//	Rect (4 x float64 bits), E (float64 bits), FetchedRecords uvarint
//	node count uvarint, then per node in ascending ID order:
//	  ID - previous ID uvarint (>= 1; the first is taken against -1)
//	  Pos x, y, z (float64 bits)
//	edges, as pair runs (below)
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
// Every section states its length, so a body is self-delimiting: a /patch
// response for k tiles is their k bodies back to back, and
// DecodeTilePatchFrom reads one off the front.
//
// Positions travel as raw IEEE-754 bits and round-trip bit-exactly. The
// encoding is deterministic and the decoder accepts only what the encoder
// emits — minimal varints, strictly ascending IDs and pairs — so byte
// equality is value equality: a body that decodes re-encodes to the
// identical bytes, and responses are byte-comparable across shards.
const (
	tileWireMagic   = "DMTP"
	tileWireVersion = 3
)

// EncodeTilePatch serializes tp into the deterministic binary wire form
// decodable with DecodeTilePatch. tp must be a patch as MaterializeTile
// (or DecodeTilePatch) builds it — IDs, edges and out-pairs ascending, IDs
// non-negative — so encoding is a straight copy-out.
func EncodeTilePatch(tp *TilePatch) []byte {
	// Sized for what the sections measure on terrain tiles: 3 bytes a run
	// head, 2 a further pair; a patch that needs more grows.
	buf := make([]byte, 0, 64+27*len(tp.ids)+
		3*(len(tp.edges.runs)+len(tp.outPairs.runs))+2*(len(tp.edges.far)+len(tp.outPairs.far)))
	buf = append(buf, tileWireMagic...)
	buf = wire.AppendUvarint(buf, tileWireVersion)
	buf = wire.AppendF64(buf, tp.Rect.MinX, tp.Rect.MinY, tp.Rect.MaxX, tp.Rect.MaxY, tp.E)
	buf = wire.AppendUvarint(buf, uint64(tp.FetchedRecords))

	buf = wire.AppendUvarint(buf, uint64(len(tp.ids)))
	prev := int64(-1)
	for i, id := range tp.ids {
		p := tp.pos[i]
		buf = wire.AppendUvarint(buf, uint64(id-prev))
		buf = wire.AppendF64(buf, p.X, p.Y, p.Z)
		prev = id
	}

	buf = tp.edges.appendWire(buf)
	return tp.outPairs.appendWire(buf)
}

// appendWire codes the pair list as runs of equal a.
func (p pairRuns) appendWire(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(p.far)))
	prevA, lo := int64(-1), 0
	for _, run := range p.runs {
		far := p.far[lo:run.end]
		lo = run.end
		buf = wire.AppendUvarint(buf, uint64(run.head-prevA))
		buf = wire.AppendUvarint(buf, uint64(len(far)))
		buf = wire.AppendVarint(buf, far[0]-run.head)
		for k := 1; k < len(far); k++ {
			buf = wire.AppendUvarint(buf, uint64(far[k]-far[k-1]))
		}
		prevA = run.head
	}
	return buf
}

// readRuns reads a run-coded pair list into p's arrays, reusing their
// memory: the far endpoints in one backing array, and the runs appended
// into room for maxRuns — what an honest encoder needs, every head being a
// node of the tile. A body with more grows the slice, each run having cost
// it three bytes or more.
func readRuns(r *wire.Reader, section string, maxRuns int, p *pairRuns) {
	n := r.Count(section, 1)
	p.far = resize(p.far, n)
	p.runs = p.runs[:0]
	if n == 0 {
		return
	}
	if cap(p.runs) < min(n, maxRuns) {
		p.runs = make([]pairRun, 0, min(n, maxRuns))
	}
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
		end := i + int(run)
		p.far[i] = b
		for i++; i < end && r.Err() == nil; i++ {
			b = r.Step(b, 1)
			p.far[i] = b
		}
		p.runs = append(p.runs, pairRun{a, end})
	}
}

// DecodeTilePatch parses a patch encoded by EncodeTilePatch into a new
// patch: DecodeTilePatchInto on a zero TilePatch.
func DecodeTilePatch(b []byte) (*TilePatch, error) {
	tp := new(TilePatch)
	if err := DecodeTilePatchInto(b, tp); err != nil {
		return nil, err
	}
	return tp, nil
}

// DecodeTilePatchInto parses a patch encoded by EncodeTilePatch into tp,
// reusing tp's arrays: a patch recycled from an earlier decode is
// overwritten whole — every field, Nodes and the census included — and
// indistinguishable afterwards from one decoded fresh. The decode is
// panic-free on arbitrary input: corruption — a body of an earlier version
// included — surfaces as an error wrapping wire.ErrCorrupt (tp's contents
// are then unspecified until it is decoded into again), and any input that
// decodes re-encodes to the identical bytes.
//
// A decoded patch is stitch-ready, not re-materializable: it carries the
// flat stitch surface (IDs, positions, pair runs) and no Nodes — no LOD
// interval, tree links, MBR or connection list — which is all StitchTiles
// and EncodeTilePatch read. It must not be used where a store-materialized
// patch's records are expected. It copies everything it keeps out of b,
// so b may be reused once it returns; the caller owns tp and decides when
// its arrays may be decoded into again (a Result of StitchTiles holds none
// of them).
//
// The sections are read straight into the patch's own arrays: a fixed
// number of allocations whatever its size, none once tp's arrays have held
// a patch as large.
func DecodeTilePatchInto(b []byte, tp *TilePatch) error {
	r := wire.NewReader("dm: tile patch wire", b)
	decodeTilePatch(&r, tp)
	return r.Done()
}

// DecodeTilePatchFrom is DecodeTilePatchInto for a body at the front of
// b, followed by anything: it returns the bytes after the body. A DMTP
// body is self-delimiting — every section states its own length — so k
// bodies written back to back, as a multi-key /patch response carries
// them, decode with k calls, each on the rest the previous one returned.
func DecodeTilePatchFrom(b []byte, tp *TilePatch) (rest []byte, err error) {
	r := wire.NewReader("dm: tile patch wire", b)
	decodeTilePatch(&r, tp)
	if err := r.Err(); err != nil {
		return nil, err
	}
	return b[len(b)-r.Len():], nil
}

// decodeTilePatch reads one body into tp; r records the first failure.
func decodeTilePatch(r *wire.Reader, tp *TilePatch) {
	r.Magic(tileWireMagic)
	if v := r.Uvarint(); v != tileWireVersion {
		r.Corruptf("unsupported version %d", v)
	}
	*tp = TilePatch{ids: tp.ids, pos: tp.pos, edges: tp.edges, outPairs: tp.outPairs}
	tp.Rect.MinX, tp.Rect.MinY = r.F64(), r.F64()
	tp.Rect.MaxX, tp.Rect.MaxY = r.F64(), r.F64()
	tp.E = r.F64()
	if v := r.Uvarint(); v > math.MaxInt {
		r.Corruptf("fetched records out of range")
	} else {
		tp.FetchedRecords = int(v)
	}

	nNodes := r.Count("nodes", 1+3*8)
	tp.ids, tp.pos = resize(tp.ids, nNodes), resize(tp.pos, nNodes)
	id := int64(-1)
	for i := 0; i < nNodes && r.Err() == nil; i++ {
		id = r.Step(id, 1)
		tp.ids[i] = id
		tp.pos[i] = geom.Point3{X: r.F64(), Y: r.F64(), Z: r.F64()}
	}

	readRuns(r, "edges", nNodes, &tp.edges)
	readRuns(r, "out-pairs", nNodes, &tp.outPairs)
	tp.charge = patchCharge(nNodes, 0, len(tp.edges.far), 0, len(tp.outPairs.far))
}
