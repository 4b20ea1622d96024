package dm

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dmesh/internal/geom"
)

// tileCover returns the 2^level x 2^level unit-square quadtree tiles
// intersecting r (boundary inclusive, indices clamped to the grid).
// Border tiles are widened to the store's data space: collapse placement
// may position merged nodes slightly outside the unit square, and those
// must land in some tile for the cover to stay exact.
func tileCover(s *Store, r geom.Rect, level int) []geom.Rect {
	n := 1 << level
	side := 1.0 / float64(n)
	clamp := func(f float64) int {
		if !(f >= 0) {
			return 0
		}
		if f > float64(n-1) {
			return n - 1
		}
		return int(f)
	}
	ds := s.DataSpace()
	ix0, ix1 := clamp(r.MinX*float64(n)), clamp(r.MaxX*float64(n))
	iy0, iy1 := clamp(r.MinY*float64(n)), clamp(r.MaxY*float64(n))
	var out []geom.Rect
	for iy := iy0; iy <= iy1; iy++ {
		for ix := ix0; ix <= ix1; ix++ {
			t := geom.Rect{
				MinX: float64(ix) * side, MinY: float64(iy) * side,
				MaxX: float64(ix+1) * side, MaxY: float64(iy+1) * side,
			}
			if ix == 0 && ds.MinX < t.MinX {
				t.MinX = ds.MinX
			}
			if ix == n-1 && ds.MaxX > t.MaxX {
				t.MaxX = ds.MaxX
			}
			if iy == 0 && ds.MinY < t.MinY {
				t.MinY = ds.MinY
			}
			if iy == n-1 && ds.MaxY > t.MaxY {
				t.MaxY = ds.MaxY
			}
			out = append(out, t)
		}
	}
	return out
}

// requireAscendingMesh asserts what StitchTiles promises beyond set
// equality: edges low-high and strictly ascending, triangles canonical and
// strictly ascending, every endpoint a vertex of the answer.
func requireAscendingMesh(t testing.TB, label string, res *Result) {
	t.Helper()
	has := func(ids ...int64) bool {
		for _, id := range ids {
			if _, ok := res.Vertices[id]; !ok {
				return false
			}
		}
		return true
	}
	for i, e := range res.Edges {
		if e[0] >= e[1] || !has(e[0], e[1]) || (i > 0 && slices.Compare(res.Edges[i-1][:], e[:]) >= 0) {
			t.Fatalf("%s: edge[%d] = %v after %v: not ascending over the vertex set", label, i, e, res.Edges[max(i-1, 0)])
		}
	}
	for i, tr := range res.Triangles {
		cur := []int64{tr.A, tr.B, tr.C}
		if tr.A >= tr.B || tr.B >= tr.C || !has(cur...) {
			t.Fatalf("%s: triangle[%d] = %v: not canonical over the vertex set", label, i, tr)
		}
		if p := res.Triangles[max(i-1, 0)]; i > 0 && slices.Compare([]int64{p.A, p.B, p.C}, cur) >= 0 {
			t.Fatalf("%s: triangle[%d] = %v after %v: not ascending", label, i, tr, p)
		}
	}
}

// stitchAgainstDirect covers r with tiles at the given level and requires
// the stitch of the resident patches, of the same patches through the
// wire, and of the two kinds alternating, to equal the direct query as
// canonical bytes.
func stitchAgainstDirect(t *testing.T, s *Store, label string, r geom.Rect, e float64, level int) {
	t.Helper()
	want, err := s.ViewpointIndependent(r, e)
	if err != nil {
		t.Fatalf("%s: direct: %v", label, err)
	}
	resident := materializeWirePatches(t, s, r, e, level)
	decoded := make([]*TilePatch, len(resident))
	mixed := slices.Clone(resident)
	for i, tp := range resident {
		if decoded[i], err = DecodeTilePatch(EncodeTilePatch(tp)); err != nil {
			t.Fatalf("%s: tile %d through the wire: %v", label, i, err)
		}
		if i%2 == 1 {
			mixed[i] = decoded[i]
		}
	}
	for kind, tiles := range map[string][]*TilePatch{"resident": resident, "decoded": decoded, "mixed": mixed} {
		got, err := StitchTiles(r, e, tiles)
		if err != nil {
			t.Fatalf("%s: stitch %s: %v", label, kind, err)
		}
		requireAscendingMesh(t, label+" "+kind, got)
		if !bytes.Equal(CanonicalMesh(got), CanonicalMesh(want)) {
			requireSameMesh(t, label+" "+kind, got, want) // names the first difference
			t.Fatalf("%s: stitch %s differs from the direct query", label, kind)
		}
	}
}

// TestMaterializeTileContent checks that a patch's live set is exactly
// the direct uniform query's vertex set over the same footprint.
func TestMaterializeTileContent(t *testing.T) {
	ds, _ := buildDataset(t, 8, "highland")
	s := newTestStore(t, ds)
	r := geom.Rect{MinX: 0.25, MinY: 0.25, MaxX: 0.75, MaxY: 0.5}
	e := eAtPercentile(ds, 0.9)
	tp, err := s.MaterializeTile(r, e)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.ViewpointIndependent(r, e)
	if err != nil {
		t.Fatal(err)
	}
	if len(tp.Nodes) != len(want.Vertices) {
		t.Fatalf("patch has %d nodes, direct query %d vertices", len(tp.Nodes), len(want.Vertices))
	}
	for i, n := range tp.Nodes {
		if i > 0 && n.ID <= tp.Nodes[i-1].ID {
			t.Fatalf("patch nodes not ascending at %d", i)
		}
		if p, ok := want.Vertices[n.ID]; !ok || n.Pos != p || tp.ids[i] != n.ID {
			t.Fatalf("node %d missing or misplaced in patch", n.ID)
		}
	}
	if tp.FetchedRecords != want.FetchedRecords {
		t.Fatalf("patch fetched %d records, direct %d", tp.FetchedRecords, want.FetchedRecords)
	}
	// A single patch covering the whole ROI stitches to the direct result.
	res, err := StitchTiles(r, e, []*TilePatch{tp})
	if err != nil {
		t.Fatal(err)
	}
	requireSameMesh(t, "single tile", res, want)
}

// TestStitchTilesExact is the subsystem's exactness property at the dm
// layer: over random ROIs, LOD percentiles and tile-grid levels 1-3 on both
// datasets, resident and decoded patches alike stitch to the direct query
// byte for byte — including ROIs aligned on tile boundaries, degenerate
// zero-area ROIs, and covers that list a tile twice.
func TestStitchTilesExact(t *testing.T) {
	for _, name := range []string{"highland", "crater"} {
		ds, _ := buildDataset(t, 33, name)
		s := newTestStore(t, ds)
		rng := rand.New(rand.NewSource(42))
		pcts := []float64{0.5, 0.8, 0.9, 0.97, 0.995}
		for i := 0; i < 25; i++ {
			w := 0.1 + rng.Float64()*0.6
			h := 0.1 + rng.Float64()*0.6
			x := rng.Float64() * (1 - w)
			y := rng.Float64() * (1 - h)
			r := geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
			e := eAtPercentile(ds, pcts[i%len(pcts)])
			level := 1 + i%3
			stitchAgainstDirect(t, s, fmt.Sprintf("%s[%d]", name, i), r, e, level)
		}
		e := eAtPercentile(ds, 0.9)
		edgeCases := []geom.Rect{
			{MinX: 0.25, MinY: 0.25, MaxX: 0.75, MaxY: 0.75}, // aligned on level-2 boundaries
			{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1},             // whole space, all tiles interior... and boundary
			{MinX: 0.5, MinY: 0.5, MaxX: 0.5, MaxY: 0.5},     // zero-area on a tile corner
			{MinX: 0.3, MinY: 0.3, MaxX: 0.3, MaxY: 0.9},     // zero-width strip
			{MinX: -0.5, MinY: 0.2, MaxX: 1.5, MaxY: 0.4},    // extends past the data space
		}
		for j, r := range edgeCases {
			stitchAgainstDirect(t, s, fmt.Sprintf("%s edge[%d]", name, j), r, e, 2)
		}
		// Set semantics: a tile given twice, or out of order, changes nothing.
		r := geom.Rect{MinX: 0.2, MinY: 0.3, MaxX: 0.7, MaxY: 0.6}
		tiles := materializeWirePatches(t, s, r, e, 2)
		once, err := StitchTiles(r, e, tiles)
		if err != nil {
			t.Fatal(err)
		}
		slices.Reverse(tiles)
		twice, err := StitchTiles(r, e, append(tiles, tiles[0], tiles[len(tiles)-1]))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(CanonicalMesh(once), CanonicalMesh(twice)) {
			t.Fatalf("%s: duplicated, reordered tiles changed the stitch", name)
		}
	}
}

func TestStitchTilesLODMismatch(t *testing.T) {
	ds, _ := buildDataset(t, 6, "highland")
	s := newTestStore(t, ds)
	e := eAtPercentile(ds, 0.9)
	tp, err := s.MaterializeTile(geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StitchTiles(geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, e*1.5, []*TilePatch{tp}); err == nil {
		t.Fatal("stitching tiles at the wrong LOD must fail")
	}
}
