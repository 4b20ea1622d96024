package costmodel

import (
	"math"
	"math/rand"
	"testing"

	"dmesh/internal/geom"
	"dmesh/internal/rtree"
)

// Reference evaluates formula (1) the way Model did before the closed
// form: it keeps every node's normalized (w, h, d) and sums the product
// node by node, and plans with the same recursion over those sums. It is
// the oracle the closed form and its plans are compared against
// (exported so the external plans test can reach it).
type Reference struct {
	space         geom.Box
	inner, leaves [][3]float64
	DataFactor    float64
	SharedPool    bool
}

func NewReference(t *rtree.Tree, space geom.Box) (*Reference, error) {
	r := &Reference{space: space}
	err := t.Nodes(func(ni rtree.NodeInfo) bool {
		dims := [3]float64{
			ni.Box.Width() / space.Width(),
			ni.Box.Height() / space.Height(),
			ni.Box.Depth() / space.Depth(),
		}
		if ni.Level == 1 {
			r.leaves = append(r.leaves, dims)
		} else {
			r.inner = append(r.inner, dims)
		}
		return true
	})
	return r, err
}

func (r *Reference) EstimateDA(q geom.Box) float64 {
	qx := q.Width() / r.space.Width()
	qy := q.Height() / r.space.Height()
	qz := q.Depth() / r.space.Depth()
	var sum float64
	for _, d := range r.inner {
		sum += (qx + d[0]) * (qy + d[1]) * (qz + d[2])
	}
	leafWeight := 1 + r.DataFactor
	for _, d := range r.leaves {
		sum += leafWeight * (qx + d[0]) * (qy + d[1]) * (qz + d[2])
	}
	return sum
}

func (r *Reference) BoundaryShared(q geom.Box, axis int) float64 {
	qx := q.Width() / r.space.Width()
	qy := q.Height() / r.space.Height()
	var sum float64
	visit := func(dims [][3]float64, weight float64) {
		for _, d := range dims {
			if axis == 0 {
				sum += weight * d[0] * (qy + d[1]) * d[2]
			} else {
				sum += weight * (qx + d[0]) * d[1] * d[2]
			}
		}
	}
	visit(r.inner, 1)
	visit(r.leaves, 1+r.DataFactor)
	return sum
}

// Plan is the planning recursion over the node-by-node sums. Beside the
// strips it returns the single-base estimate less every accepted split's
// gain: what the plan is predicted to cost once the splits are taken.
func (r *Reference) Plan(qp geom.QueryPlane, maxStrips int) ([]Strip, float64) {
	if maxStrips <= 0 {
		maxStrips = 64
	}
	budget := maxStrips
	total := r.EstimateDA(stripFor(qp, qp.R).Box())
	var out []Strip
	var rec func(rc geom.Rect)
	rec = func(rc geom.Rect) {
		strip := stripFor(qp, rc)
		if budget <= 1 || tooThin(rc, qp.Axis) {
			out = append(out, strip)
			return
		}
		r1, r2 := splitMid(rc, qp.Axis)
		s1, s2 := stripFor(qp, r1), stripFor(qp, r2)
		stripDA := r.EstimateDA(strip.Box())
		gain := stripDA - r.EstimateDA(s1.Box()) - r.EstimateDA(s2.Box())
		threshold := 0.0
		if r.SharedPool {
			gain += r.BoundaryShared(strip.Box(), qp.Axis)
			threshold = 0.01 * stripDA
		}
		if gain > threshold {
			budget--
			total -= gain
			rec(r1)
			rec(r2)
			return
		}
		out = append(out, strip)
	}
	rec(qp.R)
	return out, total
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// TestClosedFormMatchesSummation: the eight-moment polynomial is the
// node-by-node sum up to rounding, for the estimate and for the boundary
// term, over boxes inside the data space, larger than it, and with zero
// extent on any axis.
func TestClosedFormMatchesSummation(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{50, 3000, 40000} {
		tr := buildTree(t, n, int64(n))
		space := geom.Box{MinX: -0.5, MinY: 0, MinE: 0, MaxX: 1.5, MaxY: 1, MaxE: 3}
		for _, df := range []float64{0, 1.7} {
			m, err := FromRTree(tr, space)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewReference(tr, space)
			if err != nil {
				t.Fatal(err)
			}
			m.SetDataFactor(df)
			ref.DataFactor = df
			var worst float64
			for i := 0; i < 2000; i++ {
				var q geom.Box
				ext := func() (lo, hi float64) {
					lo = rng.Float64()*3 - 1
					switch rng.Intn(4) {
					case 0: // zero extent
						return lo, lo
					case 1: // larger than the data space
						return lo - 5*rng.Float64(), lo + 5
					default:
						return lo, lo + rng.Float64()
					}
				}
				q.MinX, q.MaxX = ext()
				q.MinY, q.MaxY = ext()
				q.MinE, q.MaxE = ext()
				worst = math.Max(worst, relErr(m.EstimateDA(q), ref.EstimateDA(q)))
				for axis := 0; axis < 2; axis++ {
					worst = math.Max(worst, relErr(m.boundaryShared(q, axis), ref.BoundaryShared(q, axis)))
				}
			}
			t.Logf("n=%d dataFactor=%g: worst relative error %.3g", n, df, worst)
			if worst > 1e-12 {
				t.Errorf("n=%d dataFactor=%g: closed form off the summation by %.3g relative, want ≤ 1e-12", n, df, worst)
			}
		}
	}
}

// TestPlanTotalIsSingleBaseLessAcceptedGains: the total Plan returns is
// the optimizer's own figure — under the shared-pool test the single-base
// estimate minus the gain of every split it accepted; under the paper's
// formula (7), where nothing is credited, the plain sum of the strips.
func TestPlanTotalIsSingleBaseLessAcceptedGains(t *testing.T) {
	tr := buildTree(t, 20000, 5)
	m, err := FromRTree(tr, unitSpace())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewReference(tr, unitSpace())
	if err != nil {
		t.Fatal(err)
	}
	m.SetDataFactor(1.5)
	ref.DataFactor = 1.5
	for _, shared := range []bool{true, false} {
		m.SetSharedPool(shared)
		ref.SharedPool = shared
		for axis := 0; axis < 2; axis++ {
			qp := geom.QueryPlane{R: geom.Rect{MinX: 0.05, MinY: 0.1, MaxX: 0.9, MaxY: 0.95}, EMin: 0.0, EMax: 0.9, Axis: axis}
			strips, total := m.Plan(qp, 0)
			refStrips, want := ref.Plan(qp, 0)
			if len(strips) < 2 || len(strips) != len(refStrips) {
				t.Fatalf("shared=%v axis=%d: %d strips, reference %d", shared, axis, len(strips), len(refStrips))
			}
			if e := relErr(total, want); e > 1e-9 {
				t.Errorf("shared=%v axis=%d: plan total %g, single-base less accepted gains %g (rel %.3g)", shared, axis, total, want, e)
			}
			var sum float64
			for _, s := range strips {
				sum += m.EstimateDA(s.Box())
			}
			if shared {
				if total >= sum {
					t.Errorf("axis=%d: shared-pool total %g not below the strips' sum %g", axis, total, sum)
				}
			} else if e := relErr(total, sum); e > 1e-9 {
				t.Errorf("axis=%d: paper-model total %g, strips' sum %g", axis, total, sum)
			}
		}
	}
}
