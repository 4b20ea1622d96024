package dmesh_test

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"dmesh"
	"dmesh/internal/geom"
	"dmesh/internal/heightfield"
	"dmesh/internal/simplify"
)

func buildTerrain(t *testing.T) *dmesh.Terrain {
	t.Helper()
	tr, err := dmesh.Build(dmesh.Config{Dataset: "highland", Size: 33, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBuildDefaults(t *testing.T) {
	tr, err := dmesh.Build(dmesh.Config{Size: 17})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Config.Dataset != "highland" {
		t.Fatalf("default dataset = %q", tr.Config.Dataset)
	}
	if tr.NumPoints() != 17*17 {
		t.Fatalf("NumPoints = %d", tr.NumPoints())
	}
	if tr.MaxLOD() <= 0 {
		t.Fatal("MaxLOD must be positive")
	}
}

func TestBuildUnknownDataset(t *testing.T) {
	if _, err := dmesh.Build(dmesh.Config{Dataset: "atlantis", Size: 17}); err == nil {
		t.Fatal("unknown dataset must fail")
	}
}

func TestLODPercentileMonotone(t *testing.T) {
	tr := buildTerrain(t)
	prev := -1.0
	for _, p := range []float64{-0.5, 0, 0.25, 0.5, 0.75, 1, 1.5} {
		v := tr.LODPercentile(p)
		if v < prev {
			t.Fatalf("LODPercentile not monotone at %g", p)
		}
		prev = v
	}
	if tr.LODPercentile(1) != tr.MaxLOD() {
		t.Fatalf("LODPercentile(1) = %g, MaxLOD = %g", tr.LODPercentile(1), tr.MaxLOD())
	}
	for _, c := range []struct{ p, as float64 }{{math.NaN(), 0}, {math.Inf(-1), 0}, {math.Inf(1), 1}} {
		if got := tr.LODPercentile(c.p); got != tr.LODPercentile(c.as) {
			t.Errorf("LODPercentile(%g) = %g, want LODPercentile(%g) = %g", c.p, got, c.as, tr.LODPercentile(c.as))
		}
	}
}

func TestEndToEndQuery(t *testing.T) {
	tr := buildTerrain(t)
	store, err := tr.NewDMStore()
	if err != nil {
		t.Fatal(err)
	}
	roi := dmesh.NewRect(0.1, 0.1, 0.9, 0.9)
	e := tr.LODPercentile(0.5)
	res, err := store.ViewpointIndependent(roi, e)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vertices) == 0 || len(res.Triangles) == 0 {
		t.Fatalf("empty result: %d vertices, %d triangles", len(res.Vertices), len(res.Triangles))
	}
	for _, tri := range res.Triangles {
		for _, v := range []int64{tri.A, tri.B, tri.C} {
			if _, ok := res.Vertices[v]; !ok {
				t.Fatalf("triangle references missing vertex %d", v)
			}
		}
	}
}

func TestEndToEndViewpointDependent(t *testing.T) {
	tr := buildTerrain(t)
	store, err := tr.NewDMStore()
	if err != nil {
		t.Fatal(err)
	}
	model, err := dmesh.NewCostModel(store)
	if err != nil {
		t.Fatal(err)
	}
	roi := dmesh.NewRect(0.1, 0.1, 0.9, 0.9)
	qp := geom.PlaneForAngle(roi, tr.LODPercentile(0.3), 0.01, 1)
	sb, err := store.SingleBase(qp)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := store.MultiBase(qp, model, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sb.Vertices) == 0 || len(mb.Vertices) != len(sb.Vertices) {
		t.Fatalf("vertex sets: sb=%d mb=%d", len(sb.Vertices), len(mb.Vertices))
	}
}

func TestBaselineStores(t *testing.T) {
	tr := buildTerrain(t)
	pmStore, err := tr.NewPMStore()
	if err != nil {
		t.Fatal(err)
	}
	hdovStore, err := tr.NewHDoVStore()
	if err != nil {
		t.Fatal(err)
	}
	roi := dmesh.NewRect(0.2, 0.2, 0.8, 0.8)
	e := tr.LODPercentile(0.5)
	pres, err := pmStore.QueryUniform(roi, e)
	if err != nil {
		t.Fatal(err)
	}
	hres, err := hdovStore.QueryUniform(roi, e)
	if err != nil {
		t.Fatal(err)
	}
	if len(pres.Frontier) == 0 || len(hres.Points) == 0 {
		t.Fatal("baseline queries returned nothing")
	}
}

func TestVerticalDistanceConfig(t *testing.T) {
	tr, err := dmesh.Build(dmesh.Config{Dataset: "crater", Size: 17, Seed: 1, VerticalDistanceError: true})
	if err != nil {
		t.Fatal(err)
	}
	if tr.MaxLOD() <= 0 {
		t.Fatal("vertical-distance build produced no LOD range")
	}
}

func TestIrregularTerrain(t *testing.T) {
	tr, err := dmesh.BuildFromPoints(heightfield.Crater(65, 3).SampleIrregular(600, 4), dmesh.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumPoints() != 600 {
		t.Fatalf("NumPoints = %d, want 600", tr.NumPoints())
	}
	store, err := tr.NewDMStore()
	if err != nil {
		t.Fatal(err)
	}
	res, err := store.ViewpointIndependent(dmesh.NewRect(0, 0, 1, 1), tr.LODPercentile(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vertices) == 0 || len(res.Triangles) == 0 {
		t.Fatalf("irregular terrain query: %d vertices, %d triangles", len(res.Vertices), len(res.Triangles))
	}
	// Full resolution over the whole domain must return every point.
	full, err := store.ViewpointIndependent(dmesh.NewRect(-1, -1, 2, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Vertices) != 600 {
		t.Fatalf("full-resolution irregular query returned %d of 600 points", len(full.Vertices))
	}
}

// strconv.ParseFloat accepts "nan" and "inf", so the readers hand such
// heights on; the build must refuse them by name instead of producing a
// sequence that depends on the heap's internals.
func TestBuildRejectsNonFiniteHeights(t *testing.T) {
	g, err := dmesh.ReadASCIIGrid(strings.NewReader("ncols 3\nnrows 3\ncellsize 1\n1 2 3\n4 nan 6\n7 8 9\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dmesh.BuildFromGrid(g, dmesh.Config{}); !errors.Is(err, simplify.ErrNonFinite) {
		t.Fatalf("grid with a nan height: err = %v, want ErrNonFinite", err)
	}
	pts, err := dmesh.ReadXYZ(strings.NewReader("0 0 1\n1 0 2\n0 1 inf\n1 1 4\n0.4 0.6 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dmesh.BuildFromPoints(pts, dmesh.Config{}); !errors.Is(err, simplify.ErrNonFinite) {
		t.Fatalf("points with an inf height: err = %v, want ErrNonFinite", err)
	}
}

func TestBuildRejectsGridSideBelowTwo(t *testing.T) {
	for _, size := range []int{1, -3} {
		if _, err := dmesh.Build(dmesh.Config{Size: size}); err == nil {
			t.Errorf("Size %d: Build succeeded", size)
		}
	}
}

func TestRadialThroughFacade(t *testing.T) {
	tr := buildTerrain(t)
	store, err := tr.NewDMStore()
	if err != nil {
		t.Fatal(err)
	}
	res, err := store.Radial(dmesh.NewRect(0, 0, 1, 1), dmesh.Point2{X: 0.5, Y: 0.0},
		tr.LODPercentile(0.6)/0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vertices) == 0 {
		t.Fatal("empty radial result")
	}
	if res.Strips != 16 {
		t.Fatalf("expected 16 tiles, got %d", res.Strips)
	}
}

func TestTileCacheFacade(t *testing.T) {
	tr := buildTerrain(t)
	store, err := tr.NewDMStore()
	if err != nil {
		t.Fatal(err)
	}
	ladder := tr.DefaultLODLadder()
	if len(ladder) == 0 {
		t.Fatal("empty default ladder")
	}
	for i := 1; i < len(ladder); i++ {
		if ladder[i] <= ladder[i-1] {
			t.Fatalf("ladder not strictly ascending: %v", ladder)
		}
	}
	cache, err := tr.NewTileCache(store, 0)
	if err != nil {
		t.Fatal(err)
	}
	roi := dmesh.NewRect(0.2, 0.2, 0.7, 0.6)
	e := tr.LODPercentile(0.9)
	res, qs, err := cache.Query(roi, e)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vertices) == 0 || len(res.Triangles) == 0 {
		t.Fatal("empty cached result")
	}
	want, err := store.ViewpointIndependent(roi, qs.SnappedE)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vertices) != len(want.Vertices) || len(res.Triangles) != len(want.Triangles) {
		t.Fatalf("cached %d/%d verts/tris, direct %d/%d",
			len(res.Vertices), len(res.Triangles), len(want.Vertices), len(want.Triangles))
	}
	if st := cache.Stats(); st.Queries != 1 || st.Misses == 0 {
		t.Fatalf("unexpected stats %+v", st)
	}
	// One ladder: the terrain's, the store's and the cache's.
	if !slices.Equal(store.Rungs(), ladder) || !slices.Equal(cache.Grid().Ladder(), ladder) {
		t.Fatalf("store rungs %v, cache ladder %v, want the terrain's %v", store.Rungs(), cache.Grid().Ladder(), ladder)
	}
	if got, top := cache.SnapE(tr.MaxLOD()), ladder[len(ladder)-1]; got != top {
		t.Fatalf("SnapE = %g, want the top rung %g", got, top)
	}
}
