package dm

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"dmesh/internal/geom"
	"dmesh/internal/wire"
)

func materializeWirePatches(t *testing.T, s *Store, r geom.Rect, e float64, level int) []*TilePatch {
	t.Helper()
	var tiles []*TilePatch
	for _, tr := range tileCover(s, r, level) {
		tp, err := s.MaterializeTile(tr, e)
		if err != nil {
			t.Fatalf("materialize %v: %v", tr, err)
		}
		tiles = append(tiles, tp)
	}
	return tiles
}

// requireSamePatch asserts got carries want's flat stitch surface —
// header, ascending IDs, positions bit for bit, edge runs, out-pair
// runs — which is everything the wire ships, and that got
// re-encodes to want's bytes.
func requireSamePatch(t *testing.T, label string, got, want *TilePatch) {
	t.Helper()
	if got.Rect != want.Rect || got.E != want.E || got.FetchedRecords != want.FetchedRecords {
		t.Fatalf("%s: header mismatch: got (%v, %g, %d) want (%v, %g, %d)",
			label, got.Rect, got.E, got.FetchedRecords, want.Rect, want.E, want.FetchedRecords)
	}
	if !slices.Equal(got.ids, want.ids) {
		t.Fatalf("%s: IDs mismatch: %d nodes, want %d", label, got.NumNodes(), want.NumNodes())
	}
	bits := func(p geom.Point3) [3]uint64 {
		return [3]uint64{math.Float64bits(p.X), math.Float64bits(p.Y), math.Float64bits(p.Z)}
	}
	if !slices.EqualFunc(got.pos, want.pos, func(g, w geom.Point3) bool { return bits(g) == bits(w) }) {
		t.Fatalf("%s: positions mismatch", label)
	}
	sameRuns := func(g, w pairRuns) bool { return slices.Equal(g.runs, w.runs) && slices.Equal(g.far, w.far) }
	if !sameRuns(got.edges, want.edges) {
		t.Fatalf("%s: edges mismatch", label)
	}
	if !sameRuns(got.outPairs, want.outPairs) {
		t.Fatalf("%s: outPairs mismatch", label)
	}
	if !bytes.Equal(EncodeTilePatch(got), EncodeTilePatch(want)) {
		t.Fatalf("%s: re-encode differs from original encoding", label)
	}
}

// TestTilePatchWireRoundTrip: every materialized patch round-trips its
// stitch surface through the wire codec exactly, and the encoding is a
// fixed point — encode(decode(encode(p))) == encode(p). A decoded patch
// has no Nodes: the records the stitch never reads do not travel.
func TestTilePatchWireRoundTrip(t *testing.T) {
	ds, _ := buildDataset(t, 8, "highland")
	s := newTestStore(t, ds)
	r := geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	check := func(label string, tp *TilePatch) {
		t.Helper()
		dec, err := DecodeTilePatch(EncodeTilePatch(tp))
		if err != nil {
			t.Fatalf("%s: decode: %v", label, err)
		}
		requireSamePatch(t, label, dec, tp)
		if dec.Nodes != nil || len(tp.Nodes) != tp.NumNodes() {
			t.Fatalf("%s: decoded patch has %d records, resident one %d for %d nodes",
				label, len(dec.Nodes), len(tp.Nodes), tp.NumNodes())
		}
	}
	for _, pct := range []float64{0.5, 0.9, 0.995} {
		e := eAtPercentile(ds, pct)
		for i, tp := range materializeWirePatches(t, s, r, e, 2) {
			check(fmt.Sprintf("pct %g tile %d", pct, i), tp)
		}
	}
	// The coarsest rung keeps the fewest nodes live, and an ROI off the
	// terrain materializes an empty patch: both ends of the size range.
	rungs := s.Rungs()
	tp, err := s.MaterializeTile(r, rungs[len(rungs)-1])
	if err != nil {
		t.Fatal(err)
	}
	check("coarsest patch", tp)
	if tp, err = s.MaterializeTile(geom.Rect{MinX: 5, MinY: 5, MaxX: 6, MaxY: 6}, rungs[0]); err != nil {
		t.Fatal(err)
	}
	if tp.NumNodes() != 0 {
		t.Fatalf("off-terrain patch has %d nodes", tp.NumNodes())
	}
	check("empty patch", tp)
}

// TestStitchDecodedTiles is the cluster's correctness linchpin: stitching
// decoded wire patches gives the same mesh as stitching the originals —
// and therefore the same mesh as the direct single-node query.
func TestStitchDecodedTiles(t *testing.T) {
	for _, name := range []string{"highland", "crater"} {
		ds, _ := buildDataset(t, 8, name)
		s := newTestStore(t, ds)
		r := geom.Rect{MinX: 0.15, MinY: 0.2, MaxX: 0.8, MaxY: 0.7}
		e := eAtPercentile(ds, 0.9)
		tiles := materializeWirePatches(t, s, r, e, 2)
		decoded := make([]*TilePatch, len(tiles))
		for i, tp := range tiles {
			dec, err := DecodeTilePatch(EncodeTilePatch(tp))
			if err != nil {
				t.Fatalf("%s: tile %d: %v", name, i, err)
			}
			decoded[i] = dec
		}
		got, err := StitchTiles(r, e, decoded)
		if err != nil {
			t.Fatalf("%s: stitch decoded: %v", name, err)
		}
		want, err := s.ViewpointIndependent(r, e)
		if err != nil {
			t.Fatal(err)
		}
		requireSameMesh(t, name+" decoded", got, want)
	}
}

// TestDecodeIntoRecycledPatch: a patch decoded into again and again — a
// 65² body after a 9² one and the reverse, a corrupt body between them,
// a store-materialized patch's records and census underneath — comes out
// each time exactly as a fresh decode of the same bytes.
func TestDecodeIntoRecycledPatch(t *testing.T) {
	var bodies [][]byte
	var resident []*TilePatch
	for _, size := range []int{9, 65} {
		ds, _ := buildDataset(t, size, "highland")
		tp, err := newTestStore(t, ds).MaterializeTile(fullRect(), eAtPercentile(ds, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		bodies, resident = append(bodies, EncodeTilePatch(tp)), append(resident, tp)
	}
	corrupt := bodies[1][:len(bodies[1])/2]
	for _, order := range [][2]int{{0, 1}, {1, 0}} {
		src := resident[order[1]]
		if _, dropped := src.OutPairs(); dropped == 0 || src.Nodes == nil {
			t.Fatalf("%d-node patch: %d records, %d out-pairs dropped: not dirty enough", src.NumNodes(), len(src.Nodes), dropped)
		}
		clone := func(p pairRuns) pairRuns { return pairRuns{slices.Clone(p.runs), slices.Clone(p.far)} }
		reused := &TilePatch{Rect: src.Rect, E: src.E, Nodes: slices.Clone(src.Nodes), ids: slices.Clone(src.ids),
			pos: slices.Clone(src.pos), edges: clone(src.edges), outPairs: clone(src.outPairs),
			dropped: src.dropped, charge: src.charge, FetchedRecords: src.FetchedRecords}
		for _, b := range [][]byte{bodies[order[0]], corrupt, bodies[order[1]]} {
			want, wantErr := DecodeTilePatch(b)
			requireSameDecode(t, reused, DecodeTilePatchInto(b, reused), want, wantErr)
		}
	}
}

// TestTilePatchWireCorruption: the DMTP-specific violations — wrong magic
// or version, a count the body cannot hold, every non-canonical spelling,
// a v1 or v2 body — fail with wire.ErrCorrupt. (Truncation, trailing bytes and
// non-minimal varints in a real patch are the shared harness's,
// internal/wire TestDecoders.)
func TestTilePatchWireCorruption(t *testing.T) {
	requireCorrupt := func(label string, b []byte) {
		t.Helper()
		if _, err := DecodeTilePatch(b); !errors.Is(err, wire.ErrCorrupt) {
			t.Fatalf("%s: err = %v, want wire.ErrCorrupt", label, err)
		}
	}
	nc := nonCanonicalPatches()
	if _, err := DecodeTilePatch(nc[0]); err != nil {
		t.Fatalf("hand-built baseline patch does not decode: %v", err)
	}
	requireCorrupt("bad magic", append([]byte("XXXX"), nc[0][4:]...))
	badVer := append([]byte(nil), nc[0]...)
	badVer[4] = 99
	requireCorrupt("bad version", badVer)
	// Blow up the node count: the remaining bytes can't hold it.
	requireCorrupt("impossible node count", patchBody([]byte{0xff, 0xff, 0xff, 0xff, 0x7f}))
	// Spellings the encoder never emits are corruption, not alternatives:
	// the decoder is canonical, so byte equality is value equality.
	for i, b := range nc[1:] {
		requireCorrupt(fmt.Sprintf("non-canonical #%d", i+1), b)
	}
	// A body from an earlier codec version is foreign bytes like any other.
	requireCorrupt("v1 body", v1PatchBody())
	requireCorrupt("v2 body", v2PatchBody(t))
}
