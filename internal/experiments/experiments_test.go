package experiments

import (
	"testing"

	"dmesh"
	"dmesh/internal/workload"
)

// One shared bundle per dataset: building stores dominates test time.
var bundles = map[string]*Bundle{}

func bundle(t testing.TB, name string) *Bundle {
	t.Helper()
	if b, ok := bundles[name]; ok {
		return b
	}
	b, err := BuildBundle(name, 33, 5)
	if err != nil {
		t.Fatal(err)
	}
	bundles[name] = b
	return b
}

func cfg() workload.Config { return workload.Config{Locations: 3, Seed: 42} }

// seriesByMethod indexes a figure's series.
func seriesByMethod(f *Figure) map[Method][]Point {
	out := make(map[Method][]Point)
	for _, s := range f.Series {
		out[s.Method] = s.Points
	}
	return out
}

func TestFig6ROIShape(t *testing.T) {
	b := bundle(t, "highland")
	fig, err := b.Fig6ROI(cfg(), []float64{0.04, 0.16})
	if err != nil {
		t.Fatal(err)
	}
	sm := seriesByMethod(fig)
	for _, m := range []Method{DMSB, PM, HDoV} {
		pts := sm[m]
		if len(pts) != 2 {
			t.Fatalf("%s has %d points", m, len(pts))
		}
		for _, p := range pts {
			if p.DA <= 0 {
				t.Fatalf("%s has non-positive DA", m)
			}
		}
	}
	// The headline result: DM beats PM on every point.
	for i := range sm[DMSB] {
		if sm[DMSB][i].DA >= sm[PM][i].DA {
			t.Errorf("point %d: DM-SB (%g) not below PM (%g)", i, sm[DMSB][i].DA, sm[PM][i].DA)
		}
	}
}

func TestFig6LODShape(t *testing.T) {
	b := bundle(t, "highland")
	fig, err := b.Fig6LOD(cfg(), 0.1, []float64{0.3, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	sm := seriesByMethod(fig)
	// Finer LOD (lower percentile) must not be cheaper than coarser for
	// DM (more points retrieved).
	if sm[DMSB][0].DA < sm[DMSB][1].DA {
		t.Errorf("DM-SB finer LOD cheaper than coarser: %v", sm[DMSB])
	}
	for i := range sm[DMSB] {
		if sm[DMSB][i].DA >= sm[PM][i].DA {
			t.Errorf("point %d: DM-SB (%g) not below PM (%g)", i, sm[DMSB][i].DA, sm[PM][i].DA)
		}
	}
}

func TestFig8ROIShape(t *testing.T) {
	b := bundle(t, "highland")
	fig, err := b.Fig8ROI(cfg(), []float64{0.04, 0.16})
	if err != nil {
		t.Fatal(err)
	}
	sm := seriesByMethod(fig)
	if len(sm) != 4 {
		t.Fatalf("expected 4 methods, got %d", len(sm))
	}
	for i := range sm[DMMB] {
		if sm[DMMB][i].DA > sm[DMSB][i].DA {
			t.Errorf("point %d: DM-MB (%g) above DM-SB (%g)", i, sm[DMMB][i].DA, sm[DMSB][i].DA)
		}
		if sm[DMSB][i].DA >= sm[PM][i].DA {
			t.Errorf("point %d: DM-SB (%g) not below PM (%g)", i, sm[DMSB][i].DA, sm[PM][i].DA)
		}
	}
}

func TestFig8AngleShape(t *testing.T) {
	b := bundle(t, "highland")
	fig, err := b.Fig8Angle(cfg(), 0.1, []float64{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	sm := seriesByMethod(fig)
	// DM cost grows with angle (taller query cubes), the paper's
	// observation for Figures 8(c)/8(f).
	if sm[DMSB][1].DA < sm[DMSB][0].DA {
		t.Errorf("DM-SB cost fell as angle grew: %v", sm[DMSB])
	}
}

func TestFig8LODRuns(t *testing.T) {
	b := bundle(t, "highland")
	fig, err := b.Fig8LOD(cfg(), 0.1, []float64{0.2, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		if len(s.Points) != 2 {
			t.Fatalf("%s has %d points", s.Method, len(s.Points))
		}
	}
}

func TestConnStats(t *testing.T) {
	b := bundle(t, "highland")
	st := b.Terrain.Sequence.Stats()
	if st.AvgSimilarLOD <= 0 || st.MaxSimilarLOD <= 0 {
		t.Fatal("empty connection stats")
	}
	if st.AvgTotal <= st.AvgSimilarLOD {
		t.Fatalf("total (%g) must exceed similar-LOD (%g)", st.AvgTotal, st.AvgSimilarLOD)
	}
}

func TestMeasureRejectsBadMethod(t *testing.T) {
	b := bundle(t, "highland")
	if _, err := b.measureUniform(DMMB, workload.ROIs(cfg(), 0.1)[0], 1); err == nil {
		t.Fatal("DM-MB must be rejected for viewpoint-independent queries")
	}
	if _, err := b.measurePlane(Method("bogus"), workload.PlaneFor(workload.ROIs(cfg(), 0.1)[0], 0, b.Terrain.MaxLOD(), 0.5)); err == nil {
		t.Fatal("unknown method must be rejected")
	}
}

func TestCraterBundleSmoke(t *testing.T) {
	b := bundle(t, "crater")
	fig, err := b.Fig6ROI(cfg(), []float64{0.05})
	if err != nil {
		t.Fatal(err)
	}
	sm := seriesByMethod(fig)
	if sm[DMSB][0].DA <= 0 || sm[PM][0].DA <= 0 || sm[HDoV][0].DA <= 0 {
		t.Fatalf("crater figure has non-positive DA: %v", fig.Series)
	}
	if sm[DMSB][0].DA >= sm[PM][0].DA {
		t.Errorf("crater: DM-SB (%g) not below PM (%g)", sm[DMSB][0].DA, sm[PM][0].DA)
	}
	plane, err := b.Fig8Angle(cfg(), 0.05, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(plane.Series) != 4 {
		t.Fatalf("crater angle figure has %d series", len(plane.Series))
	}
}

func TestSweepLayoutsRuns(t *testing.T) {
	b := bundle(t, "highland")
	sweep, err := b.SweepLayouts(cfg(), 0.16, 6,
		[]dmesh.Layout{dmesh.LayoutSTR, dmesh.LayoutPacked})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Sides) != 2 {
		t.Fatalf("sweep has %d sides, want 2", len(sweep.Sides))
	}
	str, packed := sweep.Side("str"), sweep.Side("packed")
	if str == nil || packed == nil {
		t.Fatal("sweep is missing the str or packed side")
	}
	// The compression claim, at any scale: packed pages hold more
	// records, so the packed store is strictly smaller.
	if packed.RecordsPerPage() < 1.7*str.RecordsPerPage() {
		t.Errorf("packed density %.1f rec/page < 1.7x str %.1f",
			packed.RecordsPerPage(), str.RecordsPerPage())
	}
	if packed.DataPages >= str.DataPages {
		t.Errorf("packed store has %d data pages, str %d: no footprint win",
			packed.DataPages, str.DataPages)
	}
	if packed.OverflowPages != 0 {
		t.Errorf("packed side has %d overflow pages, want 0", packed.OverflowPages)
	}
	for i := range sweep.Sides {
		if sweep.Sides[i].TotalDA() == 0 {
			t.Errorf("%s side measured no DA", sweep.Sides[i].Layout)
		}
	}
}

func TestDABreakdownInvariant(t *testing.T) {
	b := bundle(t, "highland")
	rows, err := b.DABreakdown(cfg(), 0.16, 6)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []string{"uniform", "single-base", "multi-base", "coherent", "tilecache"}
	if len(rows) != len(kinds) {
		t.Fatalf("got %d rows, want %d", len(rows), len(kinds))
	}
	for i, r := range rows {
		if r.Kind != kinds[i] {
			t.Errorf("row %d is %q, want %q", i, r.Kind, kinds[i])
		}
		if r.Queries == 0 {
			t.Errorf("%s: zero queries", r.Kind)
		}
		// The per-row invariant DABreakdown itself enforces per query,
		// re-checked on the aggregate: phase DAs sum to the total.
		var sum uint64
		for _, ps := range r.Phases {
			sum += ps.DA
		}
		if sum != r.TotalDA {
			t.Errorf("%s: phase DA sums to %d, total is %d", r.Kind, sum, r.TotalDA)
		}
		if r.Kind != "coherent" && r.TotalDA == 0 {
			t.Errorf("%s: zero total DA", r.Kind)
		}
	}
}
