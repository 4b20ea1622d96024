// Package stream is the progressive wire codec for query answers: a
// coarse base mesh followed by delta refinement batches in LOD order,
// the Devillers–Gandoin-style transmission path over the Direct Mesh
// property that every LOD prefix of the collapse sequence is a valid
// mesh. A stream for Q(r, e) carries one batch per LOD-ladder rung from
// the coarsest rung down to the rung e snaps to; decoding any batch
// prefix yields exactly the direct query answer at that prefix's rung,
// and decoding all batches reproduces the direct answer at the snapped
// target bit for bit.
//
// Wire layout (little endian; varints and floats are internal/wire's,
// and the decoder accepts only the canonical spelling of each — minimal
// varints, the dyadic index for every coordinate that has one — so a
// frame that decodes re-encodes to the identical bytes):
//
//	header:
//	  magic "DMPS", version uvarint (1)
//	  ROI rect (4 x float64 bits), target E (float64 bits)
//	  batch count uvarint
//	frame, repeated (one per batch, coarse to fine):
//	  payload length uvarint, then the payload:
//	    batch index uvarint, batch E (float64 bits)
//	    removed triangles  (triangle set)
//	    removed edges      (pair set)
//	    removed vertex IDs (id set)
//	    added vertex count uvarint, then per vertex (ID ascending):
//	      ID delta uvarint (vs previous added ID; absolute for the first)
//	      flags byte: bits 0..2 mark x/y/z as dyadic, bits 3..7 reserved
//	      x, y, z: zigzag-uvarint dyadic index when flagged (the packed
//	      record fast path, wire.DyadicIndex), else raw float64 bits
//	    added edges        (pair set)
//	    added triangles    (triangle set)
//
// The sets are delta-coded against already-transmitted IDs:
//
//	id set:       count uvarint; ascending IDs, first absolute then
//	              strictly positive deltas, all uvarint
//	pair set:     count uvarint; pairs (a, b) with a < b in ascending
//	              order; a as uvarint delta vs the previous pair's a,
//	              b as uvarint(b-a)
//	triangle set: count uvarint; canonical triangles (A < B < C) in
//	              ascending order; A as uvarint delta vs the previous
//	              A, then uvarint(B-A), uvarint(C-B)
//
// Every frame is length-prefixed, so a connection cut mid-frame is
// detectable: the decoder keeps the last complete batch and the client
// resumes by passing that batch index to the server, which re-sends the
// header and skips ahead.
package stream

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"dmesh/internal/dm"
	"dmesh/internal/geom"
	"dmesh/internal/obs"
	"dmesh/internal/wire"
)

const (
	streamMagic   = "DMPS"
	streamVersion = 1
	// maxFramePayload bounds a frame's declared payload length; far
	// above any real batch, far below anything that could balloon a
	// decoder fed a hostile length.
	maxFramePayload = 1 << 30
)

// ErrTruncated marks a stream that ended before the announced batch
// count was delivered — a cut connection, not corruption (bytes that
// cannot be a valid encoding are wire.ErrCorrupt, and not recoverable by
// resuming). The decoder holds the last complete batch; re-request with
// resume=LastApplied() and Attach the new body to continue.
var ErrTruncated = errors.New("stream: truncated")

// LevelsFor returns the coarse-to-fine batch schedule for a query whose
// target snapped onto ladder rung band: every rung from the ladder top
// (coarsest, largest E) down to the target rung, descending. The ladder
// is ascending, as tilecache.Grid publishes it.
func LevelsFor(ladder []float64, band int) ([]float64, error) {
	if band < 0 || band >= len(ladder) {
		return nil, fmt.Errorf("stream: band %d outside ladder of %d rungs", band, len(ladder))
	}
	levels := make([]float64, 0, len(ladder)-band)
	for i := len(ladder) - 1; i >= band; i-- {
		levels = append(levels, ladder[i])
	}
	return levels, nil
}

// Encoder turns the per-rung query answers of one ROI into the
// progressive wire form. Feed it the answers coarse to fine — one
// EncodeNext per level, in the order NewEncoder was given them.
type Encoder struct {
	rect   geom.Rect
	levels []float64
	idx    int
	resume int // last batch the client already holds; Run skips through it

	// b is the encoder's working memory: borrowed from encoderBuffers for
	// the length of a Run, made by the first EncodeNext otherwise.
	b *buffers
}

// buffers is what an encoder works in across batches, so that
// steady-state encoding allocates nothing per element.
type buffers struct {
	// prev is the last rung encoded: ids and pos in these buffers, edges
	// and tris borrowed from that rung's Result. spare holds the ids/pos
	// buffers of the rung before it, which the next one reuses.
	prev, spare mesh
	// Scratch the batches share.
	remIDs             []int64
	addVerts           []int // positions in the new rung's ids
	remEdges, addEdges [][2]int64
	remTris, addTris   []geom.Triangle
	payload            []byte
	frame              []byte // length prefix + payload
}

// encoderBuffers lends Run its buffers: a stream's batch state dies with
// the stream, so nothing is kept per encoder between streams. A set goes
// back on every return of Run, holding no Result's slices, as large as the
// largest mesh it has encoded, until two GC cycles pass without its use.
var encoderBuffers = sync.Pool{New: func() any { return new(buffers) }}

// NewEncoder prepares an encoder for a stream of len(levels) batches.
// levels must be strictly descending (coarse to fine); the last one is
// the stream's target E.
func NewEncoder(rect geom.Rect, levels []float64) (*Encoder, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("stream: no levels")
	}
	for i, e := range levels {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			return nil, fmt.Errorf("stream: level %d is %g", i, e)
		}
		if i > 0 && levels[i] >= levels[i-1] {
			return nil, fmt.Errorf("stream: levels not strictly descending at %d (%g >= %g)",
				i, levels[i], levels[i-1])
		}
	}
	return &Encoder{
		rect:   rect,
		levels: append([]float64(nil), levels...),
		resume: -1,
	}, nil
}

// Plan prepares the encoder that answers one /stream request: the batch
// schedule for a query whose LOD snapped onto ladder rung band, resumed
// after batch resume (the last batch the client fully received; -1
// streams everything). Every error is the request's fault, and nothing
// has been written when it is returned.
func Plan(rect geom.Rect, ladder []float64, band, resume int) (*Encoder, error) {
	levels, err := LevelsFor(ladder, band)
	if err != nil {
		return nil, err
	}
	if resume < -1 || resume >= len(levels) {
		return nil, fmt.Errorf("stream: resume %d outside [-1, %d)", resume, len(levels))
	}
	enc, err := NewEncoder(rect, levels)
	if err != nil {
		return nil, err
	}
	enc.resume = resume
	return enc, nil
}

// Sent is what one Run put on the wire, and what the whole stream would
// have cost had nothing been skipped.
type Sent struct {
	Frames       int // frames written (resume skips the rest)
	Bytes        int // bytes written, header included
	BytesToFirst int // header + coarsest batch: the first-render cost
	BytesToExact int // header + every batch: the exact-answer cost
}

// Run writes the progressive answer to w: the header, then for each level
// coarse to fine the delta batch encoded from query(level) — the direct
// answer at that level, from wherever the caller gets it — each written
// as soon as its query completes. Rungs up to the planned resume index
// are still queried, because the delta state needs them, but not
// written; that replayed work sits in PhaseStreamReplay spans. tr (which
// may be nil) gets one root span over the whole stream with the rung
// queries and encode spans beneath it. The returned Result is the last
// level's answer. After a failure the header and earlier frames may
// already be out: the client sees a length-prefixed truncation it can
// resume from.
func (e *Encoder) Run(w io.Writer, tr *obs.Trace, query func(level float64) (*dm.Result, error)) (*dm.Result, Sent, error) {
	tr.Begin(obs.PhaseQuery)
	defer tr.End()
	if e.b == nil {
		e.b = encoderBuffers.Get().(*buffers)
		defer e.returnBuffers()
	}
	hdr := e.Header()
	sent := Sent{BytesToFirst: len(hdr), BytesToExact: len(hdr)}
	n, err := w.Write(hdr)
	sent.Bytes = n
	if err != nil {
		return nil, sent, err
	}
	var res *dm.Result
	for i, level := range e.levels {
		replay := i <= e.resume
		var frame []byte
		if res, frame, err = e.rung(level, replay, tr, query); err != nil {
			return nil, sent, fmt.Errorf("stream: rung %d (E %g): %w", i, level, err)
		}
		if i == 0 {
			sent.BytesToFirst += len(frame)
		}
		sent.BytesToExact += len(frame)
		if replay {
			continue
		}
		n, err := w.Write(frame) // an io.Writer keeps no reference to frame
		sent.Bytes += n
		if err != nil {
			return nil, sent, err
		}
		sent.Frames++
	}
	return res, sent, nil
}

// returnBuffers hands Run's buffers back to encoderBuffers, emptied for
// the next stream's first batch (which diffs against the empty mesh) and
// without the last rung's Result slices.
func (e *Encoder) returnBuffers() {
	b := e.b
	e.b = nil
	b.prev = mesh{ids: b.prev.ids[:0], pos: b.prev.pos[:0]}
	b.spare = mesh{ids: b.spare.ids[:0], pos: b.spare.pos[:0]}
	encoderBuffers.Put(b)
}

// rung answers and encodes one level, inside a replay span when the
// frame will not be transmitted. The encode sits in a PhaseStreamEncode
// span — pure CPU, so the span carries wall time and zero DA, keeping a
// traced stream's encode cost visible next to the rung queries that feed
// it. The frame is e's, valid until the next batch.
func (e *Encoder) rung(level float64, replay bool, tr *obs.Trace, query func(float64) (*dm.Result, error)) (*dm.Result, []byte, error) {
	if replay {
		tr.Begin(obs.PhaseStreamReplay)
		defer tr.End()
	}
	res, err := query(level)
	if err != nil {
		return nil, nil, err
	}
	tr.Begin(obs.PhaseStreamEncode)
	defer tr.End()
	if err := e.encode(res); err != nil {
		return nil, nil, err
	}
	e.b.frame = e.b.appendFrame(e.b.frame[:0])
	return res, e.b.frame, nil
}

// NumBatches returns the stream's batch count.
func (e *Encoder) NumBatches() int { return len(e.levels) }

// TargetE returns the finest level — the LOD the full stream decodes to.
func (e *Encoder) TargetE() float64 { return e.levels[len(e.levels)-1] }

// Header returns the stream header bytes. Send once, before any frame.
func (e *Encoder) Header() []byte {
	buf := make([]byte, 0, 64)
	buf = append(buf, streamMagic...)
	buf = wire.AppendUvarint(buf, streamVersion)
	buf = wire.AppendF64(buf, e.rect.MinX, e.rect.MinY, e.rect.MaxX, e.rect.MaxY, e.TargetE())
	buf = wire.AppendUvarint(buf, uint64(len(e.levels)))
	return buf
}

// EncodeNext encodes the next batch: the delta from the previous level's
// answer to res, which must be the query answer at the next level of the
// schedule, in the shape dm.Result documents — edges (low, high) and
// triangles canonical, both strictly ascending, no negative ID. Anything
// else is an input error naming the offending element; the encoder checks
// that shape and never sorts its way around it. Returns the complete frame
// (length prefix included), which the caller owns.
//
// The encoder copies the vertices out of res.Vertices but borrows
// res.Edges and res.Triangles, read-only, as the state the next call
// diffs against: the caller must leave both slices unmodified until the
// next EncodeNext on this encoder has returned (or the encoder is dropped).
func (e *Encoder) EncodeNext(res *dm.Result) ([]byte, error) {
	if e.b == nil {
		e.b = new(buffers)
	}
	if err := e.encode(res); err != nil {
		return nil, err
	}
	return e.b.appendFrame(nil), nil
}

// encode is EncodeNext leaving the batch's payload in e's buffers.
func (e *Encoder) encode(res *dm.Result) error {
	if e.idx >= len(e.levels) {
		return fmt.Errorf("stream: EncodeNext past the %d scheduled batches", len(e.levels))
	}
	b := e.b
	next, err := b.flatten(res)
	if err != nil {
		return err
	}
	if err := b.encodeBatch(next, e.idx, e.levels[e.idx]); err != nil {
		return err
	}
	b.prev, b.spare = next, mesh{ids: b.prev.ids, pos: b.prev.pos}
	e.idx++
	return nil
}

// appendFrame appends the last encoded batch's frame — length prefix and
// payload — to dst, growing it at most once.
func (b *buffers) appendFrame(dst []byte) []byte {
	n := uint64(len(b.payload))
	dst = slices.Grow(dst, wire.UvarintLen(n)+len(b.payload))
	return append(wire.AppendUvarint(dst, n), b.payload...)
}

// flatten checks a rung's answer against the shape dm.Result documents
// and returns it as flat state: the vertex IDs sorted into the spare
// buffers (a map has no order to rely on), edges and triangles as they
// are.
func (b *buffers) flatten(res *dm.Result) (mesh, error) {
	ids := slices.Grow(b.spare.ids[:0], len(res.Vertices))
	for id := range res.Vertices {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	if len(ids) > 0 && ids[0] < 0 {
		return mesh{}, fmt.Errorf("stream: negative vertex ID %d", ids[0])
	}
	pos := slices.Grow(b.spare.pos[:0], len(ids))
	for _, id := range ids {
		pos = append(pos, res.Vertices[id])
	}
	for i, p := range res.Edges {
		switch {
		case p[0] < 0:
			return mesh{}, fmt.Errorf("stream: negative vertex ID in edge (%d,%d)", p[0], p[1])
		case p[0] >= p[1]:
			return mesh{}, fmt.Errorf("stream: edge (%d,%d) is not low < high", p[0], p[1])
		case i > 0 && dm.CompareEdges(res.Edges[i-1], p) >= 0:
			return mesh{}, fmt.Errorf("stream: edge (%d,%d) at %d is not strictly ascending", p[0], p[1], i)
		}
	}
	for i, t := range res.Triangles {
		switch {
		case t.A < 0:
			return mesh{}, fmt.Errorf("stream: negative vertex ID in triangle (%d,%d,%d)", t.A, t.B, t.C)
		case t.A >= t.B || t.B >= t.C:
			return mesh{}, fmt.Errorf("stream: triangle (%d,%d,%d) is not A < B < C", t.A, t.B, t.C)
		case i > 0 && dm.CompareTriangles(res.Triangles[i-1], t) >= 0:
			return mesh{}, fmt.Errorf("stream: triangle (%d,%d,%d) at %d is not strictly ascending", t.A, t.B, t.C, i)
		}
	}
	return mesh{ids: ids, pos: pos, edges: res.Edges, tris: res.Triangles}, nil
}

// encodeBatch serializes the b.prev -> next delta as batch idx at level
// as one frame payload into b.payload.
func (b *buffers) encodeBatch(next mesh, idx int, level float64) error {
	prev := b.prev
	// The vertex diff carries positions, so it is spelled out: removed IDs,
	// added vertices as positions in next, and the moved check on the rest.
	b.remIDs = slices.Grow(b.remIDs[:0], len(prev.ids))
	b.addVerts = slices.Grow(b.addVerts[:0], len(next.ids))
	i, j := 0, 0
	for i < len(prev.ids) || j < len(next.ids) {
		switch {
		case j == len(next.ids) || i < len(prev.ids) && prev.ids[i] < next.ids[j]:
			b.remIDs = append(b.remIDs, prev.ids[i])
			i++
		case i == len(prev.ids) || next.ids[j] < prev.ids[i]:
			b.addVerts = append(b.addVerts, j)
			j++
		default:
			// A refinement only splits vertices; the codec has no "move"
			// delta, so a changed position cannot be expressed.
			if p, q := next.pos[j], prev.pos[i]; math.Float64bits(p.X) != math.Float64bits(q.X) ||
				math.Float64bits(p.Y) != math.Float64bits(q.Y) ||
				math.Float64bits(p.Z) != math.Float64bits(q.Z) {
				return fmt.Errorf("stream: vertex %d moved between levels", next.ids[j])
			}
			i++
			j++
		}
	}
	b.remEdges, b.addEdges = diff(b.remEdges[:0], b.addEdges[:0], prev.edges, next.edges, dm.CompareEdges)
	b.remTris, b.addTris = diff(b.remTris[:0], b.addTris[:0], prev.tris, next.tris, dm.CompareTriangles)

	// Room for three-byte ID deltas and raw coordinates; longer spellings
	// grow the buffer like any append.
	buf := slices.Grow(b.payload[:0], 16+len(b.remIDs)*3+len(b.addVerts)*28+
		(len(b.remEdges)+len(b.addEdges))*6+(len(b.remTris)+len(b.addTris))*9)
	buf = wire.AppendUvarint(buf, uint64(idx))
	buf = wire.AppendF64(buf, level)
	buf = appendTriangleSet(buf, b.remTris)
	buf = appendPairSet(buf, b.remEdges)
	buf = appendIDSet(buf, b.remIDs)

	buf = wire.AppendUvarint(buf, uint64(len(b.addVerts)))
	prevID := int64(0)
	for _, k := range b.addVerts {
		id, p := next.ids[k], next.pos[k]
		buf = wire.AppendUvarint(buf, uint64(id-prevID))
		prevID = id
		var flags byte
		var dy [3]int64
		for ci, v := range [3]float64{p.X, p.Y, p.Z} {
			if m, ok := wire.DyadicIndex(v); ok {
				flags |= 1 << ci
				dy[ci] = m
			}
		}
		buf = append(buf, flags)
		for ci, v := range [3]float64{p.X, p.Y, p.Z} {
			if flags&(1<<ci) != 0 {
				buf = wire.AppendVarint(buf, dy[ci])
			} else {
				buf = wire.AppendF64(buf, v)
			}
		}
	}

	buf = appendPairSet(buf, b.addEdges)
	b.payload = appendTriangleSet(buf, b.addTris)
	return nil
}

func appendIDSet(buf []byte, ids []int64) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(ids)))
	prev := int64(0)
	for _, id := range ids {
		buf = wire.AppendUvarint(buf, uint64(id-prev))
		prev = id
	}
	return buf
}

func appendPairSet(buf []byte, ps [][2]int64) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(ps)))
	prevA := int64(0)
	for _, p := range ps {
		buf = wire.AppendUvarint(buf, uint64(p[0]-prevA))
		buf = wire.AppendUvarint(buf, uint64(p[1]-p[0]))
		prevA = p[0]
	}
	return buf
}

func appendTriangleSet(buf []byte, ts []geom.Triangle) []byte {
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

// Stream is one fully encoded progressive answer — the convenience form
// for callers that have all per-level answers in hand (experiments, the
// cluster router, tests).
type Stream struct {
	Rect   geom.Rect
	Levels []float64 // coarse to fine; the last is the target
	Header []byte
	Frames [][]byte // one frame per level, same order
}

// Encode builds the full stream for meshes[i] = Q(rect, levels[i]).
func Encode(rect geom.Rect, levels []float64, meshes []*dm.Result) (*Stream, error) {
	if len(meshes) != len(levels) {
		return nil, fmt.Errorf("stream: %d meshes for %d levels", len(meshes), len(levels))
	}
	enc, err := NewEncoder(rect, levels)
	if err != nil {
		return nil, err
	}
	s := &Stream{
		Rect:   rect,
		Levels: append([]float64(nil), levels...),
		Header: enc.Header(),
		Frames: make([][]byte, 0, len(meshes)),
	}
	for _, m := range meshes {
		f, err := enc.EncodeNext(m)
		if err != nil {
			return nil, err
		}
		s.Frames = append(s.Frames, f)
	}
	return s, nil
}

// BytesToFirstFrame is the cost of a first renderable mesh: header plus
// the coarsest batch.
func (s *Stream) BytesToFirstFrame() int {
	n := len(s.Header)
	if len(s.Frames) > 0 {
		n += len(s.Frames[0])
	}
	return n
}

// BytesToExact is the cost of the exact answer: header plus every batch.
func (s *Stream) BytesToExact() int {
	n := len(s.Header)
	for _, f := range s.Frames {
		n += len(f)
	}
	return n
}

// WriteTo writes the resume protocol's bytes: the header, then every
// frame after batch index resume (-1 sends all). Returns bytes written.
func (s *Stream) WriteTo(w io.Writer, resume int) (int, error) {
	if resume < -1 || resume >= len(s.Frames) {
		return 0, fmt.Errorf("stream: resume index %d outside [-1, %d)", resume, len(s.Frames))
	}
	total := 0
	n, err := w.Write(s.Header)
	total += n
	if err != nil {
		return total, err
	}
	for _, f := range s.Frames[resume+1:] {
		n, err := w.Write(f)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
