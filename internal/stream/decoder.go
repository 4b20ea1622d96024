package stream

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"dmesh/internal/dm"
	"dmesh/internal/geom"
	"dmesh/internal/wire"
)

// Decoder reconstructs a progressive stream batch by batch. After any
// number of Next calls, Mesh() is the exact direct-query answer at the
// last applied batch's LOD; after NumBatches successful calls it is the
// exact answer at the stream's target.
//
// Truncation is recoverable: a Next that fails with ErrTruncated leaves
// the decoder at the last complete batch — as does one that fails with
// wire.ErrCorrupt, which is sticky: Mesh() stays the last complete mesh,
// never a half-applied batch. Re-request the stream with
// resume=LastApplied() and Attach the new response body; the decoder
// verifies the re-sent header matches and continues where it stopped.
type Decoder struct {
	r         io.Reader
	started   bool
	rect      geom.Rect
	targetE   float64
	nBatches  int
	next      int
	lastE     float64
	bytesRead int64
	bytesAt1  int64 // bytesRead when the first batch completed
	sticky    error

	// state is the mesh at the last complete batch. A batch is merged into
	// spare's buffers and the two are swapped only once all of it has
	// checked out, so a rejected batch leaves state — and Mesh() — as the
	// previous batch left them.
	state, spare mesh
	payload      []byte // the frame buffer, reused: everything parsed is copied out of it
}

// NewDecoder returns an empty decoder; Attach a response body to start.
func NewDecoder() *Decoder { return &Decoder{} }

// read pulls exactly len(p) bytes, counting them.
func (d *Decoder) read(p []byte) error {
	n, err := io.ReadFull(d.r, p)
	d.bytesRead += int64(n)
	return err
}

// ReadByte makes the decoder its own io.ByteReader for the frame length
// varints, so no buffering reader sits between it and the body (a
// buffered reader would over-read past frame boundaries and break the
// byte accounting).
func (d *Decoder) ReadByte() (byte, error) {
	var b [1]byte
	err := d.read(b[:])
	return b[0], err
}

// uvarint reads one framing varint straight off the body: a body that
// ends is a resumable cut, a non-canonical spelling is not.
func (d *Decoder) uvarint(what string) (uint64, error) {
	v, err := wire.ReadUvarint(d)
	switch {
	case err == nil:
		return v, nil
	case errors.Is(err, wire.ErrCorrupt):
		return 0, d.poison(fmt.Errorf("stream: %s: %w", what, err))
	default:
		return 0, fmt.Errorf("stream: reading %s: %w", what, ErrTruncated)
	}
}

// Attach starts reading from r: it consumes and validates the stream
// header. The first Attach fixes the stream identity (ROI, target,
// batch count); later Attaches — resumed requests — must match it.
func (d *Decoder) Attach(r io.Reader) error {
	if d.sticky != nil {
		return d.sticky
	}
	d.r = r
	var fixed [len(streamMagic) + 5*8]byte
	magic, floats := fixed[:len(streamMagic)], fixed[len(streamMagic):]
	if err := d.read(magic); err != nil {
		return fmt.Errorf("stream: reading header: %w", ErrTruncated)
	}
	if string(magic) != streamMagic {
		return d.poison(fmt.Errorf("stream: bad magic %q: %w", magic, wire.ErrCorrupt))
	}
	version, err := d.uvarint("header version")
	if err != nil {
		return err
	}
	if version != streamVersion {
		return d.poison(fmt.Errorf("stream: unsupported version %d: %w", version, wire.ErrCorrupt))
	}
	if err := d.read(floats); err != nil {
		return fmt.Errorf("stream: reading header: %w", ErrTruncated)
	}
	fr := wire.NewReader("stream header", floats)
	rect := geom.Rect{MinX: fr.F64(), MinY: fr.F64(), MaxX: fr.F64(), MaxY: fr.F64()}
	targetE := fr.F64()
	n, err := d.uvarint("header batch count")
	if err != nil {
		return err
	}
	if n == 0 || n > maxFramePayload {
		return d.poison(fmt.Errorf("stream: impossible batch count %d: %w", n, wire.ErrCorrupt))
	}
	if math.IsNaN(targetE) || math.IsInf(targetE, 0) {
		return d.poison(fmt.Errorf("stream: target E %g: %w", targetE, wire.ErrCorrupt))
	}
	if !d.started {
		d.started = true
		d.rect, d.targetE, d.nBatches = rect, targetE, int(n)
		return nil
	}
	if rect != d.rect || math.Float64bits(targetE) != math.Float64bits(d.targetE) || int(n) != d.nBatches {
		return d.poison(fmt.Errorf("stream: resumed header mismatch (rect %v target %g batches %d, want %v %g %d): %w",
			rect, targetE, n, d.rect, d.targetE, d.nBatches, wire.ErrCorrupt))
	}
	return nil
}

func (d *Decoder) poison(err error) error {
	d.sticky = err
	return err
}

// Done reports whether every announced batch has been applied.
func (d *Decoder) Done() bool { return d.started && d.next >= d.nBatches }

// LastApplied returns the index of the last applied batch, -1 before the
// first — exactly the resume parameter a re-request needs.
func (d *Decoder) LastApplied() int { return d.next - 1 }

// NumBatches returns the announced batch count (0 before Attach).
func (d *Decoder) NumBatches() int { return d.nBatches }

// Rect returns the stream's ROI.
func (d *Decoder) Rect() geom.Rect { return d.rect }

// TargetE returns the LOD the full stream decodes to.
func (d *Decoder) TargetE() float64 { return d.targetE }

// LastE returns the LOD of the last applied batch — the LOD Mesh() is
// exact at. Zero before the first batch.
func (d *Decoder) LastE() float64 { return d.lastE }

// BytesRead returns the bytes consumed so far, summed across Attaches.
func (d *Decoder) BytesRead() int64 { return d.bytesRead }

// BytesToFirstFrame returns the bytes consumed when the first renderable
// mesh was complete (0 until then).
func (d *Decoder) BytesToFirstFrame() int64 { return d.bytesAt1 }

// Next reads and applies one batch, returning its index and LOD.
// io.EOF signals a completed stream (all batches applied); ErrTruncated
// a resumable cut; wire.ErrCorrupt an unrecoverable encoding violation.
func (d *Decoder) Next() (int, float64, error) {
	if d.sticky != nil {
		return 0, 0, d.sticky
	}
	if !d.started {
		return 0, 0, fmt.Errorf("stream: Next before Attach")
	}
	if d.Done() {
		return 0, 0, io.EOF
	}
	length, err := d.uvarint("frame length")
	if err != nil {
		return 0, 0, err
	}
	if length > maxFramePayload {
		return 0, 0, d.poison(fmt.Errorf("stream: frame %d declares %d bytes: %w", d.next, length, wire.ErrCorrupt))
	}
	payload, err := d.readPayload(int(length))
	if err != nil {
		return 0, 0, fmt.Errorf("stream: frame %d: %w", d.next, ErrTruncated)
	}
	e, err := d.applyBatch(payload)
	if err != nil {
		return 0, 0, d.poison(err)
	}
	d.next++
	d.lastE = e
	if d.next == 1 {
		d.bytesAt1 = d.bytesRead
	}
	return d.next - 1, e, nil
}

// payloadChunk is the most a frame's declared length is trusted for
// before any of its bytes have arrived.
const payloadChunk = 64 << 10

// readPayload reads a frame payload of the declared length into the
// decoder's frame buffer, growing it only as bytes actually arrive: a real
// frame (tens of KB) fits what earlier frames left or costs one
// allocation, while a hostile or cut stream that declares a gigabyte
// costs what it sent, not what it claimed.
func (d *Decoder) readPayload(n int) ([]byte, error) {
	buf := slices.Grow(d.payload[:0], min(n, payloadChunk))
	buf = buf[:min(n, cap(buf))]
	for have := 0; ; {
		if err := d.read(buf[have:]); err != nil {
			return nil, err
		}
		if have = len(buf); have == n {
			d.payload = buf
			return buf, nil
		}
		buf = slices.Grow(buf, min(n-have, have))
		buf = buf[:min(n, cap(buf))]
	}
}

// Mesh returns the decoded mesh at the last applied batch — a fresh
// Result in the canonical query-answer shape, safe to retain. The state
// is already in that shape, so this is two copies and the map fill.
func (d *Decoder) Mesh() *dm.Result {
	s := &d.state
	res := &dm.Result{
		Vertices:  make(map[int64]geom.Point3, len(s.ids)),
		Edges:     append(make([][2]int64, 0, len(s.edges)), s.edges...),
		Triangles: append(make([]geom.Triangle, 0, len(s.tris)), s.tris...),
	}
	for i, id := range s.ids {
		res.Vertices[id] = s.pos[i]
	}
	return res
}

// idSet reads an ascending ID set (first absolute, then strictly
// positive deltas).
func idSet(r *wire.Reader, what string) []int64 {
	n := r.Count(what, 1)
	if n == 0 {
		return nil
	}
	ids := make([]int64, n)
	prev := int64(0)
	for i := 0; i < n && r.Err() == nil; i++ {
		prev = r.Step(prev, min(uint64(i), 1)) // the first ID is absolute
		ids[i] = prev
	}
	return ids
}

// pairSet reads ascending (a, b) pairs with a < b.
func pairSet(r *wire.Reader, what string) [][2]int64 {
	n := r.Count(what, 2)
	if n == 0 {
		return nil
	}
	ps := make([][2]int64, n)
	var prev [2]int64
	for i := 0; i < n && r.Err() == nil; i++ {
		a := r.Step(prev[0], 0)
		b := r.Step(a, 1)
		if i > 0 && a == prev[0] && b <= prev[1] {
			r.Corruptf("out of order")
		}
		prev = [2]int64{a, b}
		ps[i] = prev
	}
	return ps
}

// triangleSet reads canonical triangles (A < B < C) in strictly
// ascending (A, B, C) order.
func triangleSet(r *wire.Reader, what string) []geom.Triangle {
	n := r.Count(what, 3)
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

// applyBatch parses one frame payload and applies it to the state,
// returning the batch's LOD: next = (state − removed) ∪ added, one merge
// per element kind. Membership violations (removing what was never sent,
// adding what the previous batch's mesh already has) are corruption: the
// two codec ends have diverged and no resume can fix that. Additions are
// checked against the mesh as it stood before the batch, so a frame
// cannot remove an element and add it back — the encoder, which sends the
// set difference, never would. Nothing of a rejected batch reaches the
// state.
func (d *Decoder) applyBatch(payload []byte) (float64, error) {
	r := wire.NewReader("frame payload", payload)
	idx := r.Uvarint()
	e := r.F64()
	switch {
	case r.Err() != nil:
	case idx != uint64(d.next):
		r.Corruptf("batch %d arrived", idx)
	case math.IsNaN(e) || math.IsInf(e, 0):
		r.Corruptf("batch E %g", e)
	case d.next > 0 && e >= d.lastE:
		r.Corruptf("batch does not refine (E %g after %g)", e, d.lastE)
	case int(idx) == d.nBatches-1 && math.Float64bits(e) != math.Float64bits(d.targetE):
		r.Corruptf("final batch E %g, header target %g", e, d.targetE)
	}

	remTris := triangleSet(&r, "removed triangles")
	remEdges := pairSet(&r, "removed edges")
	remVerts := idSet(&r, "removed vertices")

	nAdds := r.Count("added vertices", 5)
	addIDs, addPos := make([]int64, nAdds), make([]geom.Point3, nAdds)
	prevID := int64(0)
	for i := 0; i < nAdds && r.Err() == nil; i++ {
		prevID = r.Step(prevID, min(uint64(i), 1)) // the first ID is absolute
		flags := r.Byte()
		if flags&^0x07 != 0 {
			r.Corruptf("reserved vertex flag bits")
		}
		addIDs[i] = prevID
		addPos[i] = geom.Point3{X: r.Float(flags&1 != 0), Y: r.Float(flags&2 != 0), Z: r.Float(flags&4 != 0)}
	}

	addEdges := pairSet(&r, "added edges")
	addTris := triangleSet(&r, "added triangles")
	if err := r.Done(); err != nil {
		return 0, fmt.Errorf("stream: batch %d: %w", d.next, err)
	}

	s, next := &d.state, d.spare
	r.Section("membership")
	next.ids = apply(next.ids[:0], s.ids, remVerts, addIDs, cmp.Compare[int64], &r, "vertex")
	next.edges = apply(next.edges[:0], s.edges, remEdges, addEdges, dm.CompareEdges, &r, "edge")
	next.tris = apply(next.tris[:0], s.tris, remTris, addTris, dm.CompareTriangles, &r, "triangle")
	// Every endpoint a batch introduces must be a vertex of the mesh the
	// batch produces: a binary search in its ID list, behind a direct-mapped
	// memo of the IDs already found there, since a vertex is the endpoint of
	// a dozen edges and triangles and only the first needs the search.
	var seen [2048]int64 // seen[id%len] == id+1: id is in next.ids
	missing := func(id int64) bool {
		slot := &seen[uint64(id)%uint64(len(seen))]
		if *slot == id+1 {
			return false
		}
		if _, ok := slices.BinarySearch(next.ids, id); !ok {
			return true
		}
		*slot = id + 1
		return false
	}
	for _, p := range addEdges {
		for _, id := range p {
			if missing(id) {
				r.Corruptf("edge references untransmitted vertex %d", id)
			}
		}
	}
	for _, t := range addTris {
		for _, id := range [3]int64{t.A, t.B, t.C} {
			if missing(id) {
				r.Corruptf("triangle references untransmitted vertex %d", id)
			}
		}
	}
	if err := r.Err(); err != nil {
		return 0, fmt.Errorf("stream: batch %d: %w", d.next, err)
	}
	// Positions follow the merged IDs: each is an added vertex or the next
	// survivor, and both are ascending, so one forward walk finds them.
	next.pos = slices.Grow(next.pos[:0], len(next.ids))
	old, ad := 0, 0
	for _, id := range next.ids {
		if ad < len(addIDs) && addIDs[ad] == id {
			next.pos = append(next.pos, addPos[ad])
			ad++
			continue
		}
		for s.ids[old] != id {
			old++
		}
		next.pos = append(next.pos, s.pos[old])
		old++
	}
	d.state, d.spare = next, d.state
	return e, nil
}
