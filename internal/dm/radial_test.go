package dm

import (
	"math"
	"strings"
	"testing"

	"dmesh/internal/costmodel"
	"dmesh/internal/geom"
)

func TestRadialValidation(t *testing.T) {
	ds, _ := buildDataset(t, 6, "highland")
	s := newTestStore(t, ds)
	if _, err := s.Radial(geom.Rect{MinX: 1, MaxX: 0, MinY: 0, MaxY: 1}, geom.Point2{}, 1, 4); err == nil {
		t.Fatal("invalid ROI must be rejected")
	}
	if _, err := s.Radial(fullRect(), geom.Point2{}, 0, 4); err == nil {
		t.Fatal("non-positive scale must be rejected")
	}
}

func TestRadialLiveSetMatchesProfile(t *testing.T) {
	ds, _ := buildDataset(t, 9, "crater")
	s := newTestStore(t, ds)
	viewer := geom.Point2{X: 0.5, Y: 0.1}
	roi := geom.Rect{MinX: 0.05, MinY: 0.05, MaxX: 0.95, MaxY: 0.95}
	// Scale chosen so the nearest terrain needs a mid-fine LOD.
	scale := eAtPercentile(ds, 0.6) / 0.1
	res, err := s.Radial(roi, viewer, scale, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vertices) == 0 {
		t.Fatal("empty radial result")
	}
	if res.Strips != 36 {
		t.Fatalf("expected 36 tiles, got %d", res.Strips)
	}
	// Ground truth: the per-position interval rule over the whole tree.
	want := make(map[int64]bool)
	for i := range ds.Tree.Nodes {
		n := &ds.Tree.Nodes[i]
		if !roi.ContainsPoint(n.Pos.XY()) {
			continue
		}
		req := scale * viewer.Dist(n.Pos.XY())
		if n.Interval().Contains(req) {
			want[int64(i)] = true
		}
	}
	if len(res.Vertices) != len(want) {
		t.Fatalf("radial live set %d, want %d", len(res.Vertices), len(want))
	}
	for id := range res.Vertices {
		if !want[id] {
			t.Fatalf("vertex %d should not be live", id)
		}
	}
}

func TestRadialFinerNearViewer(t *testing.T) {
	ds, _ := buildDataset(t, 9, "highland")
	s := newTestStore(t, ds)
	viewer := geom.Point2{X: 0.1, Y: 0.1}
	roi := geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	scale := eAtPercentile(ds, 0.7) / 0.2
	res, err := s.Radial(roi, viewer, scale, 8)
	if err != nil {
		t.Fatal(err)
	}
	var nearE, farE float64
	var nearN, farN int
	for id := range res.Vertices {
		n := &ds.Tree.Nodes[id]
		if viewer.Dist(n.Pos.XY()) < 0.4 {
			nearE += n.ELow
			nearN++
		} else {
			farE += n.ELow
			farN++
		}
	}
	if nearN == 0 || farN == 0 {
		t.Skip("degenerate band split")
	}
	if nearE/float64(nearN) > farE/float64(farN) {
		t.Fatalf("near region coarser (%g) than far (%g)", nearE/float64(nearN), farE/float64(farN))
	}
}

func TestRadialCheaperThanFullCube(t *testing.T) {
	// Tiling around the profile must beat one cube spanning the whole
	// radial LOD range.
	ds, _ := buildDataset(t, 10, "highland")
	s := newTestStore(t, ds)
	viewer := geom.Point2{X: 0.5, Y: 0.0}
	roi := geom.Rect{MinX: 0.05, MinY: 0.05, MaxX: 0.95, MaxY: 0.95}
	scale := eAtPercentile(ds, 0.5) / 0.1

	if err := s.DropCaches(); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	if _, err := s.Radial(roi, viewer, scale, 8); err != nil {
		t.Fatal(err)
	}
	tiled := s.DiskAccesses()

	// The single-cube equivalent: the radial range over the whole ROI.
	lo, hi := radialRange(roi, viewer, scale)
	if hi > s.MaxE() {
		hi = s.MaxE()
	}
	if err := s.DropCaches(); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	if _, err := s.newFetcher().fetchBoxes([]geom.Box{geom.BoxFromRect(roi, lo, hi)}); err != nil {
		t.Fatal(err)
	}
	single := s.DiskAccesses()
	if tiled > single {
		t.Fatalf("tiled radial fetch (%d DA) worse than single cube (%d DA)", tiled, single)
	}
}

func TestExplainPlane(t *testing.T) {
	ds, _ := buildDataset(t, 9, "highland")
	s := newTestStore(t, ds)
	model, err := s.CostModel()
	if err != nil {
		t.Fatal(err)
	}
	qp := geom.QueryPlane{
		R:    geom.Rect{MinX: 0.05, MinY: 0.05, MaxX: 0.95, MaxY: 0.95},
		EMin: eAtPercentile(ds, 0.2), EMax: eAtPercentile(ds, 0.95), Axis: 1,
	}
	plan, err := s.ExplainPlane(qp, model, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Strips) < 1 {
		t.Fatal("empty plan")
	}
	if plan.EstimatedDA <= 0 || plan.SingleBaseDA <= 0 {
		t.Fatalf("non-positive estimates: %+v", plan)
	}
	// The plan's strip count must match what MultiBase actually executes.
	res, err := s.MultiBase(qp, model, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strips != len(plan.Strips) {
		t.Fatalf("plan has %d strips, execution used %d", len(plan.Strips), res.Strips)
	}
	// The total is the optimizer's own figure. The store's model is
	// shared-pool, so each of the len-1 accepted splits was credited the
	// boundary term — formula (1) for the boundary face, which spans the
	// ROI across the gradient axis and has no extent along it or in e —
	// and the plan costs the cubes' sum less those credits.
	planSum := func(p *Plan) float64 {
		var sum float64
		for _, st := range p.Strips {
			sum += st.EstimatedDA
		}
		return sum
	}
	if len(plan.Strips) < 2 {
		t.Fatalf("plan did not split: %d strip(s)", len(plan.Strips))
	}
	boundary := model.EstimateDA(geom.Box{MinX: qp.R.MinX, MaxX: qp.R.MaxX})
	want := planSum(plan) - float64(len(plan.Strips)-1)*boundary
	if math.Abs(plan.EstimatedDA-want) > 1e-9*want {
		t.Fatalf("shared-pool plan total %g, want cubes' sum %g less %d boundary credits of %g = %g",
			plan.EstimatedDA, planSum(plan), len(plan.Strips)-1, boundary, want)
	}
	// Under the paper's model nothing is credited: the plain sum.
	paper, err := costmodel.FromRTree(s.RTree(), s.DataSpace())
	if err != nil {
		t.Fatal(err)
	}
	paper.SetDataFactor(model.DataFactor())
	paperPlan, err := s.ExplainPlane(qp, paper, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := planSum(paperPlan); math.Abs(paperPlan.EstimatedDA-want) > 1e-9*want {
		t.Fatalf("paper-model plan total %g, want the cubes' sum %g", paperPlan.EstimatedDA, want)
	}
	out := plan.String()
	if !strings.Contains(out, "multi-base plan") || !strings.Contains(out, "cube 0") {
		t.Fatalf("String output:\n%s", out)
	}
	if _, err := s.ExplainPlane(qp, nil, 0); err == nil {
		t.Fatal("nil model must be rejected")
	}
}

// TestRadialTileBoundaryPointsOnce: a grid point lying exactly on a
// shared tile edge is fetched by every adjacent tile's range query
// (closed boxes), but the merged result must contain it — and the edges
// and triangles around it — exactly once, and the live set must still
// match the radial profile oracle.
func TestRadialTileBoundaryPointsOnce(t *testing.T) {
	ds, _ := buildDataset(t, 9, "highland") // grid coords k/8: x=0.5 is a 2x2 tile edge
	s := newTestStore(t, ds)
	viewer := geom.Point2{X: 0.25, Y: 0.25}
	roi := geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	scale := eAtPercentile(ds, 0.6) / 0.3
	res, err := s.Radial(roi, viewer, scale, 2)
	if err != nil {
		t.Fatal(err)
	}

	onBoundary := func(p geom.Point2) bool { return p.X == 0.5 || p.Y == 0.5 }
	want := make(map[int64]bool)
	boundaryLive := 0
	for i := range ds.Tree.Nodes {
		n := &ds.Tree.Nodes[i]
		if !roi.ContainsPoint(n.Pos.XY()) {
			continue
		}
		if n.Interval().Contains(scale * viewer.Dist(n.Pos.XY())) {
			want[int64(i)] = true
			if onBoundary(n.Pos.XY()) {
				boundaryLive++
			}
		}
	}
	if boundaryLive == 0 {
		t.Fatal("test is vacuous: no live point on a tile boundary")
	}
	if len(res.Vertices) != len(want) {
		t.Fatalf("live set %d, want %d", len(res.Vertices), len(want))
	}
	for id := range want {
		if _, ok := res.Vertices[id]; !ok {
			t.Fatalf("live node %d (pos %v) missing", id, ds.Tree.Nodes[id].Pos.XY())
		}
	}

	edges := make(map[[2]int64]bool, len(res.Edges))
	for _, e := range res.Edges {
		if e[0] >= e[1] {
			t.Fatalf("edge %v not normalized", e)
		}
		if edges[e] {
			t.Fatalf("edge %v appears twice", e)
		}
		edges[e] = true
	}
	tris := make(map[geom.Triangle]bool, len(res.Triangles))
	for _, tr := range res.Triangles {
		c := tr.Canon()
		if tris[c] {
			t.Fatalf("triangle %v appears twice", c)
		}
		tris[c] = true
	}
}
