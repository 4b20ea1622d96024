package costmodel

import (
	"math"
	"math/rand"
	"testing"

	"dmesh/internal/geom"
	"dmesh/internal/rtree"
	"dmesh/internal/storage/pager"
)

func buildTree(t testing.TB, n int, seed int64) *rtree.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	items := make([]rtree.Item, n)
	for i := range items {
		x, y := rng.Float64(), rng.Float64()
		lo := rng.Float64() * 0.8
		items[i] = rtree.Item{Box: geom.VerticalSegment(x, y, lo, lo+rng.Float64()*0.2), Ref: int64(i)}
	}
	p := pager.New(pager.NewMemBackend(), 8192)
	tr, err := rtree.BulkLoad(p, items)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func unitSpace() geom.Box { return geom.Box{MaxX: 1, MaxY: 1, MaxE: 1} }

func TestFromRTreeValidation(t *testing.T) {
	tr := buildTree(t, 100, 1)
	if _, err := FromRTree(tr, geom.Box{}); err == nil {
		t.Fatal("zero-volume space must be rejected")
	}
	m, err := FromRTree(tr, unitSpace())
	if err != nil {
		t.Fatal(err)
	}
	nn := 0
	if err := tr.Nodes(func(rtree.NodeInfo) bool { nn++; return true }); err != nil {
		t.Fatal(err)
	}
	if got := m.inner.n + m.leaves.n; got != nn {
		t.Fatalf("model has %d nodes, tree has %d", got, nn)
	}
}

func TestEstimateMonotoneInQuerySize(t *testing.T) {
	tr := buildTree(t, 5000, 2)
	m, err := FromRTree(tr, unitSpace())
	if err != nil {
		t.Fatal(err)
	}
	small := m.EstimateDA(geom.Box{MinX: 0.4, MinY: 0.4, MinE: 0.4, MaxX: 0.5, MaxY: 0.5, MaxE: 0.5})
	large := m.EstimateDA(geom.Box{MinX: 0.1, MinY: 0.1, MinE: 0.1, MaxX: 0.9, MaxY: 0.9, MaxE: 0.9})
	if small <= 0 || large <= small {
		t.Fatalf("estimates not monotone: small=%g large=%g", small, large)
	}
	// The full-space query must estimate at least the node count (every
	// node is visited).
	full := m.EstimateDA(unitSpace())
	if nodes := m.inner.n + m.leaves.n; full < float64(nodes) {
		t.Fatalf("full-space estimate %g below node count %d", full, nodes)
	}
}

func TestEstimateTracksActualDA(t *testing.T) {
	// The estimate should correlate with reality: a thin plane query must
	// be estimated well below a tall cube query.
	tr := buildTree(t, 20000, 3)
	m, err := FromRTree(tr, unitSpace())
	if err != nil {
		t.Fatal(err)
	}
	r := geom.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.8, MaxY: 0.8}
	thin := m.EstimateDA(geom.BoxFromRect(r, 0.5, 0.5))
	tall := m.EstimateDA(geom.BoxFromRect(r, 0.0, 1.0))
	if thin >= tall/2 {
		t.Fatalf("thin plane estimate %g not clearly below tall cube %g", thin, tall)
	}
}

func TestPlanStripsFlatPlaneIsSingleBase(t *testing.T) {
	tr := buildTree(t, 5000, 4)
	m, err := FromRTree(tr, unitSpace())
	if err != nil {
		t.Fatal(err)
	}
	qp := geom.QueryPlane{R: geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.9, MaxY: 0.9}, EMin: 0.3, EMax: 0.3, Axis: 1}
	strips := m.PlanStrips(qp, 0)
	if len(strips) != 1 {
		t.Fatalf("flat plane planned %d strips, want 1", len(strips))
	}
	if strips[0].ELow != 0.3 || strips[0].EHigh != 0.3 {
		t.Fatalf("flat strip LOD range [%g,%g]", strips[0].ELow, strips[0].EHigh)
	}
}

func TestPlanStripsSteepPlaneSplits(t *testing.T) {
	tr := buildTree(t, 20000, 5)
	m, err := FromRTree(tr, unitSpace())
	if err != nil {
		t.Fatal(err)
	}
	qp := geom.QueryPlane{R: geom.Rect{MinX: 0.05, MinY: 0.05, MaxX: 0.95, MaxY: 0.95}, EMin: 0.0, EMax: 0.9, Axis: 1}
	strips := m.PlanStrips(qp, 0)
	if len(strips) < 2 {
		t.Fatalf("steep plane planned %d strips", len(strips))
	}
	// Strips must cover the ROI contiguously along y and hug the plane.
	total := 0.0
	for _, s := range strips {
		total += s.R.Height()
		if s.EHigh < s.ELow {
			t.Fatalf("inverted strip LOD range: %+v", s)
		}
		wantLo, wantHi := qp.EAt(0, s.R.MinY), qp.EAt(0, s.R.MaxY)
		if math.Abs(s.ELow-wantLo) > 1e-12 || math.Abs(s.EHigh-wantHi) > 1e-12 {
			t.Fatalf("strip LOD range [%g,%g], plane says [%g,%g]", s.ELow, s.EHigh, wantLo, wantHi)
		}
	}
	if math.Abs(total-qp.R.Height()) > 1e-9 {
		t.Fatalf("strips cover %g of ROI height %g", total, qp.R.Height())
	}
	// Planned total volume must not exceed the single-base cube's volume.
	single := geom.BoxFromRect(qp.R, qp.EMin, qp.EMax).Volume()
	var planned float64
	for _, s := range strips {
		planned += s.Box().Volume()
	}
	if planned > single {
		t.Fatalf("planned volume %g exceeds single-base %g", planned, single)
	}
}

func TestPlanStripsRespectsBudget(t *testing.T) {
	tr := buildTree(t, 20000, 6)
	m, err := FromRTree(tr, unitSpace())
	if err != nil {
		t.Fatal(err)
	}
	qp := geom.QueryPlane{R: geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, EMin: 0, EMax: 1, Axis: 1}
	strips := m.PlanStrips(qp, 3)
	if len(strips) > 3 {
		t.Fatalf("budget 3 produced %d strips", len(strips))
	}
}

func TestPlanStripsAxisX(t *testing.T) {
	tr := buildTree(t, 10000, 7)
	m, err := FromRTree(tr, unitSpace())
	if err != nil {
		t.Fatal(err)
	}
	qp := geom.QueryPlane{R: geom.Rect{MinX: 0, MinY: 0.4, MaxX: 1, MaxY: 0.6}, EMin: 0, EMax: 0.8, Axis: 0}
	strips := m.PlanStrips(qp, 0)
	total := 0.0
	for _, s := range strips {
		total += s.R.Width()
		if s.R.MinY != 0.4 || s.R.MaxY != 0.6 {
			t.Fatalf("axis-0 split must not cut y: %+v", s.R)
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("x strips cover %g of width 1", total)
	}
}
