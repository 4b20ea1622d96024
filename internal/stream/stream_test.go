package stream_test

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"dmesh"
	"dmesh/internal/dm"
	"dmesh/internal/geom"
	"dmesh/internal/stream"
	"dmesh/internal/tilecache"
	"dmesh/internal/wire"
)

var (
	fixOnce sync.Once
	fixes   map[string]*fixture
)

type fixture struct {
	terrain *dmesh.Terrain
	store   *dmesh.DMStore
	cache   *tilecache.Cache
}

// fix memoizes one terrain + store + tile cache per dataset; building
// (simplification above all) dominates test time.
func fix(t *testing.T, name string) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		fixes = make(map[string]*fixture)
		for _, n := range []string{"highland", "crater"} {
			tr, err := dmesh.Build(dmesh.Config{Dataset: n, Size: 17, Seed: 7})
			if err != nil {
				panic(err)
			}
			s, err := tr.NewDMStore()
			if err != nil {
				panic(err)
			}
			c, err := tr.NewTileCache(s, 0)
			if err != nil {
				panic(err)
			}
			fixes[n] = &fixture{terrain: tr, store: s, cache: c}
		}
	})
	return fixes[name]
}

func randRects(rng *rand.Rand, n int) []geom.Rect {
	out := make([]geom.Rect, 0, n)
	for i := 0; i < n; i++ {
		w := 0.15 + rng.Float64()*0.5
		h := 0.15 + rng.Float64()*0.5
		x := rng.Float64() * (1 - w)
		y := rng.Float64() * (1 - h)
		out = append(out, geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h})
	}
	return out
}

// encodeStream builds the progressive stream for Q(roi, target) out of
// the fixture's tile cache, returning the stream and its levels.
func encodeStream(t *testing.T, f *fixture, roi geom.Rect, band int) *stream.Stream {
	t.Helper()
	levels, err := stream.LevelsFor(f.cache.Grid().Ladder(), band)
	if err != nil {
		t.Fatal(err)
	}
	meshes := make([]*dm.Result, 0, len(levels))
	for _, e := range levels {
		res, _, err := f.cache.Query(roi, e)
		if err != nil {
			t.Fatal(err)
		}
		meshes = append(meshes, res)
	}
	st, err := stream.Encode(roi, levels, meshes)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func flatten(st *stream.Stream) []byte {
	var buf bytes.Buffer
	buf.Write(st.Header)
	for _, f := range st.Frames {
		buf.Write(f)
	}
	return buf.Bytes()
}

// TestStreamPrefixExactness is the core property on both datasets:
// for random ROIs and LOD bands, decoding any batch prefix yields
// exactly (canonical serialization) the direct query answer at that
// prefix's rung, and the full stream reproduces the direct answer at
// the target. Run under -race by make race.
func TestStreamPrefixExactness(t *testing.T) {
	for _, name := range []string{"highland", "crater"} {
		t.Run(name, func(t *testing.T) {
			f := fix(t, name)
			ladder := f.cache.Grid().Ladder()
			rng := rand.New(rand.NewSource(11))
			for qi, roi := range randRects(rng, 6) {
				band := rng.Intn(len(ladder))
				st := encodeStream(t, f, roi, band)
				if got, want := len(st.Frames), len(ladder)-band; got != want {
					t.Fatalf("query %d: %d batches, want %d", qi, got, want)
				}
				if st.BytesToFirstFrame() >= st.BytesToExact() && len(st.Frames) > 1 {
					t.Fatalf("query %d: first frame (%d B) not cheaper than exact (%d B)",
						qi, st.BytesToFirstFrame(), st.BytesToExact())
				}

				dec := stream.NewDecoder()
				if err := dec.Attach(bytes.NewReader(flatten(st))); err != nil {
					t.Fatal(err)
				}
				var lastE float64
				var firstFrame int64
				for !dec.Done() {
					idx, e, err := dec.Next()
					if err != nil {
						t.Fatalf("query %d batch %d: %v", qi, idx, err)
					}
					if idx == 0 {
						firstFrame = dec.BytesRead()
					}
					direct, derr := f.store.ViewpointIndependent(roi, e)
					if derr != nil {
						t.Fatal(derr)
					}
					if !bytes.Equal(dm.CanonicalMesh(dec.Mesh()), dm.CanonicalMesh(direct)) {
						t.Fatalf("query %d: prefix through batch %d (E %g) differs from direct query", qi, idx, e)
					}
					lastE = e
				}
				if _, _, err := dec.Next(); err != io.EOF {
					t.Fatalf("Next after completion: %v, want io.EOF", err)
				}
				if lastE != ladder[band] {
					t.Fatalf("final E %g, want rung %g", lastE, ladder[band])
				}
				if dec.BytesRead() != int64(st.BytesToExact()) {
					t.Fatalf("decoder consumed %d B, stream is %d B", dec.BytesRead(), st.BytesToExact())
				}
				if firstFrame != int64(st.BytesToFirstFrame()) {
					t.Fatalf("decoder read %d B through the first frame, encoder says %d",
						firstFrame, st.BytesToFirstFrame())
				}
			}
		})
	}
}

// TestStreamTruncationAndResume cuts one stream at a sweep of byte
// positions: the decoder must keep the last complete batch, report
// ErrTruncated (never panic, never corrupt state), and complete exactly
// after re-attaching a resumed body (header + the batches it lacks).
func TestStreamTruncationAndResume(t *testing.T) {
	f := fix(t, "highland")
	ladder := f.cache.Grid().Ladder()
	roi := geom.Rect{MinX: 0.2, MinY: 0.15, MaxX: 0.8, MaxY: 0.75}
	st := encodeStream(t, f, roi, 0) // deepest target: every rung
	full := flatten(st)
	direct, err := f.store.ViewpointIndependent(roi, ladder[0])
	if err != nil {
		t.Fatal(err)
	}
	want := dm.CanonicalMesh(direct)

	// Cut positions: every frame boundary, one byte to each side of it,
	// and a few interior points per frame.
	cuts := map[int]bool{0: true, 1: true, len(st.Header) - 1: true, len(st.Header): true}
	off := len(st.Header)
	for _, fr := range st.Frames {
		for _, c := range []int{off + 1, off + len(fr)/2, off + len(fr) - 1, off + len(fr)} {
			if c >= 0 && c <= len(full) {
				cuts[c] = true
			}
		}
		off += len(fr)
	}
	for cut := range cuts {
		dec := stream.NewDecoder()
		err := dec.Attach(bytes.NewReader(full[:cut]))
		if err != nil {
			if !errors.Is(err, stream.ErrTruncated) {
				t.Fatalf("cut %d: Attach: %v, want ErrTruncated", cut, err)
			}
		} else {
			for !dec.Done() {
				if _, _, err := dec.Next(); err != nil {
					if !errors.Is(err, stream.ErrTruncated) {
						t.Fatalf("cut %d: %v, want ErrTruncated", cut, err)
					}
					break
				}
			}
		}
		if dec.Done() {
			if cut != len(full) {
				t.Fatalf("cut %d: decoder done early", cut)
			}
			continue
		}

		// Resume: the server's protocol re-sends the header and skips
		// every batch the client confirmed.
		var resumed bytes.Buffer
		if _, err := st.WriteTo(&resumed, dec.LastApplied()); err != nil {
			t.Fatal(err)
		}
		if err := dec.Attach(&resumed); err != nil {
			t.Fatalf("cut %d: resumed Attach: %v", cut, err)
		}
		for !dec.Done() {
			if _, _, err := dec.Next(); err != nil {
				t.Fatalf("cut %d: resumed Next: %v", cut, err)
			}
		}
		if !bytes.Equal(dm.CanonicalMesh(dec.Mesh()), want) {
			t.Fatalf("cut %d: resumed stream decodes a different mesh", cut)
		}
	}
}

// TestStreamResumeHeaderMismatch: a resumed body for a different query
// must be rejected, not silently applied.
func TestStreamResumeHeaderMismatch(t *testing.T) {
	f := fix(t, "highland")
	roi := geom.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.7, MaxY: 0.7}
	st := encodeStream(t, f, roi, 0)
	other := encodeStream(t, f, geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.5, MaxY: 0.5}, 0)

	dec := stream.NewDecoder()
	if err := dec.Attach(bytes.NewReader(flatten(st))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := dec.Next(); err != nil {
		t.Fatal(err)
	}
	if err := dec.Attach(bytes.NewReader(flatten(other))); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("mismatched resume header: %v, want ErrCorrupt", err)
	}
}

// TestStreamCorruptionRejected flips single bytes across one encoded
// stream: the decoder must never panic; any error must be ErrCorrupt or
// ErrTruncated. (A flip inside raw coordinate bits can decode to a
// different valid mesh — that is the quantizer's job to care about, not
// the framing's.)
func TestStreamCorruptionRejected(t *testing.T) {
	f := fix(t, "highland")
	roi := geom.Rect{MinX: 0.25, MinY: 0.25, MaxX: 0.7, MaxY: 0.6}
	full := flatten(encodeStream(t, f, roi, 0))
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		pos := rng.Intn(len(full))
		mut := append([]byte(nil), full...)
		mut[pos] ^= byte(1 + rng.Intn(255))
		dec := stream.NewDecoder()
		if err := dec.Attach(bytes.NewReader(mut)); err != nil {
			if !errors.Is(err, wire.ErrCorrupt) && !errors.Is(err, stream.ErrTruncated) {
				t.Fatalf("flip at %d: Attach: %v", pos, err)
			}
			continue
		}
		for !dec.Done() {
			if _, _, err := dec.Next(); err != nil {
				if !errors.Is(err, wire.ErrCorrupt) && !errors.Is(err, stream.ErrTruncated) {
					t.Fatalf("flip at %d: Next: %v", pos, err)
				}
				break
			}
		}
	}
}

// TestLevelsFor pins the batch schedule: coarse to fine, down to the
// target band, errors outside the ladder.
func TestLevelsFor(t *testing.T) {
	ladder := []float64{1, 2, 4, 8}
	levels, err := stream.LevelsFor(ladder, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 3 || levels[0] != 8 || levels[1] != 4 || levels[2] != 2 {
		t.Fatalf("LevelsFor(band 1) = %v", levels)
	}
	for _, band := range []int{-1, 4} {
		if _, err := stream.LevelsFor(ladder, band); err == nil {
			t.Fatalf("LevelsFor(band %d) succeeded", band)
		}
	}
}

// TestEncoderValidation pins the encoder's input contract.
func TestEncoderValidation(t *testing.T) {
	rect := geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	if _, err := stream.NewEncoder(rect, nil); err == nil {
		t.Fatal("NewEncoder with no levels succeeded")
	}
	if _, err := stream.NewEncoder(rect, []float64{1, 2}); err == nil {
		t.Fatal("NewEncoder with ascending levels succeeded")
	}
	enc, err := stream.NewEncoder(rect, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	// A Result that violates its own documented shape is an input error
	// naming the element; nothing is normalized or sorted on its behalf, and
	// the rejected call consumes no batch.
	verts := map[int64]geom.Point3{1: {}, 2: {}, 3: {}, 4: {}}
	bad := map[string]struct {
		res  dm.Result
		want string
	}{
		"negative vertex ID":      {dm.Result{Vertices: map[int64]geom.Point3{-7: {}, 1: {}}}, "-7"},
		"degenerate edge":         {dm.Result{Vertices: verts, Edges: [][2]int64{{2, 2}}}, "(2,2)"},
		"edge high-low":           {dm.Result{Vertices: verts, Edges: [][2]int64{{3, 1}}}, "(3,1)"},
		"edge with negative ID":   {dm.Result{Vertices: verts, Edges: [][2]int64{{-1, 2}}}, "(-1,2)"},
		"edges descending":        {dm.Result{Vertices: verts, Edges: [][2]int64{{1, 3}, {1, 2}}}, "(1,2)"},
		"edge repeated":           {dm.Result{Vertices: verts, Edges: [][2]int64{{1, 2}, {1, 2}}}, "(1,2)"},
		"degenerate triangle":     {dm.Result{Vertices: verts, Triangles: []geom.Triangle{{A: 1, B: 1, C: 2}}}, "(1,1,2)"},
		"triangle not canonical":  {dm.Result{Vertices: verts, Triangles: []geom.Triangle{{A: 2, B: 1, C: 3}}}, "(2,1,3)"},
		"triangle negative ID":    {dm.Result{Vertices: verts, Triangles: []geom.Triangle{{A: -2, B: 1, C: 3}}}, "(-2,1,3)"},
		"triangles descending":    {dm.Result{Vertices: verts, Triangles: []geom.Triangle{{A: 1, B: 2, C: 4}, {A: 1, B: 2, C: 3}}}, "(1,2,3)"},
		"triangle repeated":       {dm.Result{Vertices: verts, Triangles: []geom.Triangle{{A: 1, B: 2, C: 3}, {A: 1, B: 2, C: 3}}}, "(1,2,3)"},
		"triangles descending, B": {dm.Result{Vertices: verts, Triangles: []geom.Triangle{{A: 1, B: 3, C: 4}, {A: 1, B: 2, C: 4}}}, "(1,2,4)"},
	}
	for name, c := range bad {
		if _, err := enc.EncodeNext(&c.res); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %s", name, err, c.want)
		}
	}
	empty := &dm.Result{Vertices: map[int64]geom.Point3{}}
	if _, err := enc.EncodeNext(empty); err != nil {
		t.Fatal(err)
	}
	if _, err := enc.EncodeNext(empty); err == nil {
		t.Fatal("EncodeNext past the schedule succeeded")
	}

	// A vertex the previous rung already sent cannot come back elsewhere.
	enc, err = stream.NewEncoder(rect, []float64{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.EncodeNext(&dm.Result{Vertices: map[int64]geom.Point3{1: {}, 2: {}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := enc.EncodeNext(&dm.Result{Vertices: map[int64]geom.Point3{2: {Z: 1}, 3: {}}}); err == nil || !strings.Contains(err.Error(), "vertex 2 moved") {
		t.Fatalf("moved vertex: err = %v", err)
	}
}

// handFrame assembles one DMPS frame that removes nothing and adds the
// given vertex records (count, then the pre-encoded records) and nothing
// else, for tests that need spellings the encoder never emits.
func handFrame(idx uint64, e float64, nAdds uint64, addRecords ...byte) []byte {
	p := wire.AppendUvarint(nil, idx)
	p = wire.AppendF64(p, e)
	p = append(p, 0, 0, 0) // removed triangles, edges, vertices
	p = wire.AppendUvarint(p, nAdds)
	p = append(p, addRecords...)
	p = append(p, 0, 0) // added edges, triangles
	return append(wire.AppendUvarint(nil, uint64(len(p))), p...)
}

func handHeader(t *testing.T, levels ...float64) []byte {
	t.Helper()
	enc, err := stream.NewEncoder(geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, levels)
	if err != nil {
		t.Fatal(err)
	}
	return enc.Header()
}

// TestStreamCanonicalOnly: DMPS accepts exactly the bytes the encoder
// emits. Each case is one edit away from a hand-built frame that decodes,
// spells the same mesh, and must be rejected as wire.ErrCorrupt — so that
// decode∘encode is the identity on bytes, as it is for DMTP.
func TestStreamCanonicalOnly(t *testing.T) {
	hdr := handHeader(t, 2)
	decode := func(body ...[]byte) error {
		dec := stream.NewDecoder()
		if err := dec.Attach(bytes.NewReader(bytes.Join(body, nil))); err != nil {
			return err
		}
		for !dec.Done() {
			if _, _, err := dec.Next(); err != nil {
				return err
			}
		}
		return nil
	}
	// Vertex 5 at (0.5, 0.25, pi): x and y dyadic (indices 2048, 1024), z raw.
	vert := func(flags byte, coords ...[]byte) []byte {
		return append([]byte{5, flags}, bytes.Join(coords, nil)...)
	}
	x, y := wire.AppendVarint(nil, 2048), wire.AppendVarint(nil, 1024)
	z := wire.AppendF64(nil, math.Pi)
	good := handFrame(0, 2, 1, vert(0x03, x, y, z)...)
	if err := decode(hdr, good); err != nil {
		t.Fatalf("hand-built baseline stream does not decode: %v", err)
	}

	nonMinimalIdx := append([]byte{}, good...)
	nonMinimalIdx[0]++ // one more payload byte...
	nonMinimalIdx = append(nonMinimalIdx[:1:1], append([]byte{0x80, 0x00}, good[2:]...)...)
	twoLevel := handHeader(t, 2, 1)
	first := handFrame(0, 2, 1, vert(0x03, x, y, z)...)
	cases := map[string][][]byte{
		"non-minimal version":        {[]byte("DMPS\x81\x00"), hdr[5:], good},
		"non-minimal batch count":    {hdr[:len(hdr)-1], {0x81, 0x00}, good},
		"non-minimal frame length":   {hdr, {good[0] | 0x80, 0x00}, good[1:]},
		"non-minimal payload varint": {hdr, nonMinimalIdx},
		"dyadic x sent raw":          {hdr, handFrame(0, 2, 1, vert(0x02, wire.AppendF64(nil, 0.5), y, z)...)},
		"raw z flagged dyadic":       {hdr, handFrame(0, 2, 1, vert(0x07, x, y, wire.AppendVarint(nil, 1<<41+1))...)},
		"reserved flag bit":          {hdr, handFrame(0, 2, 1, vert(0x0b, x, y, z)...)},
		"NaN batch E":                {hdr, handFrame(0, math.NaN(), 0)},
		"trailing payload byte":      {hdr, handFrame(0, 2, 1, append(vert(0x03, x, y, z), 0, 0, 0)...)},
		// Batch 1 removes vertex 5 and adds it back: the same mesh as an
		// empty batch, which is what the encoder would have sent.
		"remove and re-add": {twoLevel, first, func() []byte {
			p := wire.AppendF64([]byte{1}, 1)
			p = append(p, 0, 0, 1, 5) // removed: no triangles, no edges, vertex 5
			p = append(append(p, 1), vert(0x03, x, y, z)...)
			p = append(p, 0, 0)
			return append(wire.AppendUvarint(nil, uint64(len(p))), p...)
		}()},
	}
	// A triangle set's spelling: batch 1 joins vertex 4 to the triangle's
	// corners and adds (1,2,4) and (1,3,4) — out of order, twice, or with
	// B == A.
	addTris := func(ts ...geom.Triangle) []byte {
		return hostileStream(t, delta{addVerts: []int64{4}, pos: map[int64]geom.Point3{4: {}},
			addEdges: [][2]int64{{1, 4}, {2, 4}, {3, 4}}, addTris: ts})
	}
	t124, t134 := geom.Triangle{A: 1, B: 2, C: 4}, geom.Triangle{A: 1, B: 3, C: 4}
	if err := decode(addTris(t124, t134)); err != nil {
		t.Fatalf("hand-built triangle batch does not decode: %v", err)
	}
	cases["triangles out of order"] = [][]byte{addTris(t134, t124)}
	cases["triangle repeated"] = [][]byte{addTris(t124, t124)}
	cases["degenerate triangle"] = [][]byte{addTris(geom.Triangle{A: 1, B: 1, C: 4})}
	for name, body := range cases {
		err := decode(body...)
		if !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%s: err = %v, want wire.ErrCorrupt", name, err)
		}
		t.Logf("%s: %v", name, err)
	}
}

// TestDecoderHostileFrameLength is the regression for the decoder
// trusting a frame's declared length: a few dozen bytes declaring a 1 GiB
// frame used to allocate 1 GiB before reading any of it. The payload
// buffer now grows only as bytes arrive, the cut is an ordinary
// ErrTruncated, and the decoder resumes from it.
func TestDecoderHostileFrameLength(t *testing.T) {
	hdr := handHeader(t, 2)
	hostile := append(append([]byte{}, hdr...), wire.AppendUvarint(nil, 1<<30)...)
	hostile = append(hostile, "only these bytes ever arrive"...)
	if len(hostile) >= 100 {
		t.Fatalf("hostile stream is %d bytes", len(hostile))
	}
	dec := stream.NewDecoder()
	if err := dec.Attach(bytes.NewReader(hostile)); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := dec.Next()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, stream.ErrTruncated) {
		t.Fatalf("Next on a cut 1 GiB frame: %v, want ErrTruncated", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("decoder allocated %d bytes for a %d-byte input", grew, len(hostile))
	}
	if err := dec.Attach(bytes.NewReader(append(hdr, handFrame(0, 2, 0)...))); err != nil {
		t.Fatalf("resumed Attach: %v", err)
	}
	if _, _, err := dec.Next(); err != nil || !dec.Done() {
		t.Fatalf("resumed Next: %v (done %t)", err, dec.Done())
	}
	// A frame larger than the first chunk still arrives whole.
	big := make([]byte, 0, 300<<10)
	for id := byte(1); len(big) < 200<<10; id = 1 {
		big = append(big, id, 0x00)
		big = wire.AppendF64(big, math.Pi, math.Pi, math.Pi)
	}
	dec = stream.NewDecoder()
	if err := dec.Attach(bytes.NewReader(append(handHeader(t, 2), handFrame(0, 2, uint64(len(big)/26), big...)...))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := dec.Next(); err != nil || len(dec.Mesh().Vertices) != len(big)/26 {
		t.Fatalf("large frame: %v, %d vertices, want %d", err, len(dec.Mesh().Vertices), len(big)/26)
	}
}

// delta is one batch spelled as its six sets: what a frame carries, free
// of how either codec end computes it. The tests build frames from it —
// the reference encoder's, and hostile ones no encoder emits.
type delta struct {
	remTris  []geom.Triangle
	remEdges [][2]int64
	remVerts []int64
	addVerts []int64 // positions come from pos
	pos      map[int64]geom.Point3
	addEdges [][2]int64
	addTris  []geom.Triangle
}

func appendPairs(p []byte, ps [][2]int64) []byte {
	p = wire.AppendUvarint(p, uint64(len(ps)))
	prevA := int64(0)
	for _, e := range ps {
		p = wire.AppendUvarint(p, uint64(e[0]-prevA))
		p = wire.AppendUvarint(p, uint64(e[1]-e[0]))
		prevA = e[0]
	}
	return p
}

func appendTris(p []byte, ts []geom.Triangle) []byte {
	p = wire.AppendUvarint(p, uint64(len(ts)))
	prevA := int64(0)
	for _, t := range ts {
		p = wire.AppendUvarint(p, uint64(t.A-prevA))
		p = wire.AppendUvarint(p, uint64(t.B-t.A))
		p = wire.AppendUvarint(p, uint64(t.C-t.B))
		prevA = t.A
	}
	return p
}

// frame spells the delta as DMPS batch idx at LOD e, sets in the order
// given (the decoder must reject unsorted ones; the spelling does not
// care).
func (d delta) frame(idx int, e float64) []byte {
	p := wire.AppendUvarint(nil, uint64(idx))
	p = wire.AppendF64(p, e)
	p = appendTris(p, d.remTris)
	p = appendPairs(p, d.remEdges)
	p = wire.AppendUvarint(p, uint64(len(d.remVerts)))
	prev := int64(0)
	for _, id := range d.remVerts {
		p = wire.AppendUvarint(p, uint64(id-prev))
		prev = id
	}
	p = wire.AppendUvarint(p, uint64(len(d.addVerts)))
	prev = 0
	for _, id := range d.addVerts {
		p = wire.AppendUvarint(p, uint64(id-prev))
		prev = id
		pt := d.pos[id]
		var flags byte
		var coords []byte
		for ci, v := range [3]float64{pt.X, pt.Y, pt.Z} {
			if m, ok := wire.DyadicIndex(v); ok {
				flags |= 1 << ci
				coords = wire.AppendVarint(coords, m)
			} else {
				coords = wire.AppendF64(coords, v)
			}
		}
		p = append(append(p, flags), coords...)
	}
	p = appendPairs(p, d.addEdges)
	p = appendTris(p, d.addTris)
	return append(wire.AppendUvarint(nil, uint64(len(p))), p...)
}

// refDelta is the codec's original encoder, kept as the reference the
// merge-based one is compared against: both meshes into hash sets, the
// two set differences pulled out of them, each sorted.
func refDelta(prev, next *dm.Result) delta {
	d := delta{pos: next.Vertices}
	for id := range prev.Vertices {
		if _, ok := next.Vertices[id]; !ok {
			d.remVerts = append(d.remVerts, id)
		}
	}
	for id := range next.Vertices {
		if _, ok := prev.Vertices[id]; !ok {
			d.addVerts = append(d.addVerts, id)
		}
	}
	edgeSet := func(res *dm.Result) map[[2]int64]struct{} {
		m := make(map[[2]int64]struct{}, len(res.Edges))
		for _, e := range res.Edges {
			if e[0] > e[1] {
				e[0], e[1] = e[1], e[0]
			}
			m[e] = struct{}{}
		}
		return m
	}
	triSet := func(res *dm.Result) map[geom.Triangle]struct{} {
		m := make(map[geom.Triangle]struct{}, len(res.Triangles))
		for _, t := range res.Triangles {
			m[t.Canon()] = struct{}{}
		}
		return m
	}
	pe, ne, pt, nt := edgeSet(prev), edgeSet(next), triSet(prev), triSet(next)
	for e := range pe {
		if _, ok := ne[e]; !ok {
			d.remEdges = append(d.remEdges, e)
		}
	}
	for e := range ne {
		if _, ok := pe[e]; !ok {
			d.addEdges = append(d.addEdges, e)
		}
	}
	for t := range pt {
		if _, ok := nt[t]; !ok {
			d.remTris = append(d.remTris, t)
		}
	}
	for t := range nt {
		if _, ok := pt[t]; !ok {
			d.addTris = append(d.addTris, t)
		}
	}
	slices.Sort(d.remVerts)
	slices.Sort(d.addVerts)
	slices.SortFunc(d.remEdges, dm.CompareEdges)
	slices.SortFunc(d.addEdges, dm.CompareEdges)
	slices.SortFunc(d.remTris, dm.CompareTriangles)
	slices.SortFunc(d.addTris, dm.CompareTriangles)
	return d
}

// TestStreamMatchesReference is the differential test: over random ROIs
// and every band of both datasets, every frame the encoder emits is byte
// for byte the reference encoder's, and the decoder's mesh after every
// batch is the direct answer at that rung.
func TestStreamMatchesReference(t *testing.T) {
	for _, name := range []string{"highland", "crater"} {
		t.Run(name, func(t *testing.T) {
			f := fix(t, name)
			ladder := f.cache.Grid().Ladder()
			rng := rand.New(rand.NewSource(23))
			for qi, roi := range randRects(rng, 4) {
				for band := range ladder {
					levels, err := stream.LevelsFor(ladder, band)
					if err != nil {
						t.Fatal(err)
					}
					enc, err := stream.NewEncoder(roi, levels)
					if err != nil {
						t.Fatal(err)
					}
					dec := stream.NewDecoder()
					body := bytes.NewBuffer(enc.Header())
					if err := dec.Attach(body); err != nil {
						t.Fatal(err)
					}
					prev := &dm.Result{}
					for i, e := range levels {
						direct, err := f.store.ViewpointIndependent(roi, e)
						if err != nil {
							t.Fatal(err)
						}
						frame, err := enc.EncodeNext(direct)
						if err != nil {
							t.Fatal(err)
						}
						if want := refDelta(prev, direct).frame(i, e); !bytes.Equal(frame, want) {
							t.Fatalf("query %d band %d batch %d: frame differs from the reference encoder's (%d B vs %d B)",
								qi, band, i, len(frame), len(want))
						}
						body.Write(frame)
						if _, _, err := dec.Next(); err != nil {
							t.Fatalf("query %d band %d batch %d: %v", qi, band, i, err)
						}
						if !bytes.Equal(dm.CanonicalMesh(dec.Mesh()), dm.CanonicalMesh(direct)) {
							t.Fatalf("query %d band %d: mesh after batch %d differs from the direct answer", qi, band, i)
						}
						prev = direct
					}
				}
			}
		})
	}
}

// hostileStream is a two-batch stream over one triangle whose second
// batch the caller supplies: batch 0 adds vertices 1, 2, 3, their three
// edges and the triangle.
func hostileStream(t *testing.T, second delta) []byte {
	t.Helper()
	first := delta{
		addVerts: []int64{1, 2, 3},
		pos:      map[int64]geom.Point3{1: {X: 0.25}, 2: {Y: 0.5}, 3: {X: 1, Y: 1, Z: math.Pi}},
		addEdges: [][2]int64{{1, 2}, {1, 3}, {2, 3}},
		addTris:  []geom.Triangle{{A: 1, B: 2, C: 3}},
	}
	return bytes.Join([][]byte{handHeader(t, 2, 1), first.frame(0, 2), second.frame(1, 1)}, nil)
}

// TestDecoderRejectsWholeBatch: a batch that contradicts the mesh it is
// applied to is wire.ErrCorrupt, sticky, and leaves no trace — Mesh() is
// still the previous batch's. The first case is the regression: batch 1
// removes a real triangle and a real edge before naming an edge the mesh
// never had, and the decoder used to have deleted the real ones by the
// time it noticed.
func TestDecoderRejectsWholeBatch(t *testing.T) {
	origin := map[int64]geom.Point3{3: {}, 4: {}}
	cases := map[string]delta{
		"removes real elements, then an unknown edge": {
			remTris: []geom.Triangle{{A: 1, B: 2, C: 3}}, remEdges: [][2]int64{{1, 2}, {2, 9}}},
		"removes and re-adds the same edge": {
			remEdges: [][2]int64{{1, 3}}, addEdges: [][2]int64{{1, 3}}},
		"removes an unknown triangle": {
			remTris: []geom.Triangle{{A: 1, B: 2, C: 4}}},
		"adds an edge to a vertex the batch removes": {
			remTris: []geom.Triangle{{A: 1, B: 2, C: 3}}, remEdges: [][2]int64{{1, 3}, {2, 3}}, remVerts: []int64{3},
			addVerts: []int64{4}, pos: origin, addEdges: [][2]int64{{3, 4}}},
		"adds a vertex already present": {
			addVerts: []int64{3}, pos: origin},
		"adds a triangle on an untransmitted vertex": {
			addTris: []geom.Triangle{{A: 1, B: 2, C: 7}}},
		"removes an unknown vertex past the last": {
			remVerts: []int64{8}},
	}
	for name, second := range cases {
		dec := stream.NewDecoder()
		if err := dec.Attach(bytes.NewReader(hostileStream(t, second))); err != nil {
			t.Fatal(err)
		}
		if _, _, err := dec.Next(); err != nil {
			t.Fatalf("%s: batch 0: %v", name, err)
		}
		want := dm.CanonicalMesh(dec.Mesh())
		_, _, err := dec.Next()
		if !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%s: err = %v, want wire.ErrCorrupt", name, err)
			continue
		}
		t.Logf("%s: %v", name, err)
		if !bytes.Equal(dm.CanonicalMesh(dec.Mesh()), want) {
			t.Errorf("%s: the rejected batch changed the mesh", name)
		}
		if _, _, again := dec.Next(); again != err {
			t.Errorf("%s: second Next = %v, want the sticky %v", name, again, err)
		}
		if dec.LastApplied() != 0 {
			t.Errorf("%s: LastApplied = %d after a rejected batch 1", name, dec.LastApplied())
		}
	}
	// The same two-batch shape with a legal second batch decodes: the cases
	// above fail for their membership, not their spelling.
	legal := delta{remTris: []geom.Triangle{{A: 1, B: 2, C: 3}}, remEdges: [][2]int64{{1, 3}},
		addVerts: []int64{4}, pos: origin, addEdges: [][2]int64{{1, 4}, {3, 4}}, addTris: []geom.Triangle{{A: 2, B: 3, C: 4}}}
	dec := stream.NewDecoder()
	if err := dec.Attach(bytes.NewReader(hostileStream(t, legal))); err != nil {
		t.Fatal(err)
	}
	for !dec.Done() {
		if _, _, err := dec.Next(); err != nil {
			t.Fatalf("legal second batch: %v", err)
		}
	}
	if m := dec.Mesh(); len(m.Vertices) != 4 || len(m.Edges) != 4 || len(m.Triangles) != 1 {
		t.Fatalf("legal second batch: %d vertices, %d edges, %d triangles", len(m.Vertices), len(m.Edges), len(m.Triangles))
	}
}
