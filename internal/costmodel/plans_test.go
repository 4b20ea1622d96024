package costmodel_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dmesh"
	"dmesh/internal/costmodel"
	"dmesh/internal/geom"
	"dmesh/internal/workload"
)

// TestPlansIdenticalToReference: planning over the eight moments yields,
// strip for strip, the plan the node-by-node sums yield — on the real
// stores' indexes (both datasets, two sizes, the default layout and
// LayoutSTR), under the shared-pool test and the paper's formula (7), for
// planes drawn like the figure workloads (workload.PlaneFor: a start LOD
// and a fraction of the maximum angle) and like /frame (near and far LOD
// percentiles at the ROI's edges), along either axis.
func TestPlansIdenticalToReference(t *testing.T) {
	const planes = 1000
	for _, dataset := range []string{"highland", "crater"} {
		for _, size := range []int{65, 129} {
			tn, err := dmesh.Build(dmesh.Config{Dataset: dataset, Size: size, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			maxLOD := tn.LODPercentile(0.995)
			for _, layout := range []dmesh.Layout{dmesh.LayoutPacked, dmesh.LayoutSTR} {
				store, err := tn.NewDMStoreWithPools(dmesh.StorePools{Layout: layout})
				if err != nil {
					t.Fatal(err)
				}
				m, err := dmesh.NewCostModel(store)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := costmodel.NewReference(store.RTree(), store.DataSpace())
				if err != nil {
					t.Fatal(err)
				}
				ref.DataFactor = m.DataFactor()
				for _, shared := range []bool{true, false} {
					m.SetSharedPool(shared)
					ref.SharedPool = shared
					name := fmt.Sprintf("%s/%d/%v/shared=%v", dataset, size, layout, shared)
					rng := rand.New(rand.NewSource(int64(size)))
					split := 0
					for i := 0; i < planes; i++ {
						w, h := 0.02+0.6*rng.Float64(), 0.02+0.6*rng.Float64()
						x, y := rng.Float64()*(1-w), rng.Float64()*(1-h)
						roi := geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
						var qp geom.QueryPlane
						if i%2 == 0 {
							qp = workload.PlaneFor(roi, tn.LODPercentile(0.5+0.49*rng.Float64()), maxLOD, rng.Float64())
						} else {
							near := rng.Float64()
							qp = geom.QueryPlane{R: roi, EMin: tn.LODPercentile(near), EMax: tn.LODPercentile(near + (1-near)*rng.Float64()), Axis: 1}
						}
						qp.Axis = i / 2 % 2
						got, total := m.Plan(qp, 0)
						want, wantTotal := ref.Plan(qp, 0)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s plane %d %+v: %d strips, reference %d\n got %v\nwant %v", name, i, qp, len(got), len(want), got, want)
						}
						if math.Abs(total-wantTotal) > 1e-9*math.Abs(wantTotal) {
							t.Fatalf("%s plane %d: plan total %g, reference %g", name, i, total, wantTotal)
						}
						if len(got) > 1 {
							split++
						}
					}
					// Formula (7) uncredited hardly ever splits on indexes this
					// small; the shared-pool test must, or nothing was compared.
					if shared && split < planes/4 {
						t.Errorf("%s: only %d of %d planes split; the comparison is not exercising the split test", name, split, planes)
					}
				}
			}
		}
	}
}
