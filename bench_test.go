// Ablations of the design decisions in DESIGN.md §5, the concurrent-
// serving benchmark and the build pipeline. The ablations' interesting
// output is the custom metric DA/query (the paper's y axis), not ns/op.
// Run with:
//
//	go test -bench=. -benchmem
//
// The figures themselves come from cmd/dmbench, and every exact column of
// every one is pinned by TestFigureTablePinned in internal/experiments.
package dmesh_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"dmesh"
	"dmesh/internal/costmodel"
	"dmesh/internal/experiments"
	"dmesh/internal/workload"
)

const (
	benchSize = 129
	benchSeed = 1
)

var (
	benchMu       sync.Mutex
	benchHighland *experiments.Bundle
)

// highland builds (once) the bundle every benchmark runs on.
func highland(b *testing.B) *experiments.Bundle {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if benchHighland == nil {
		bb, err := experiments.BuildBundle("highland", benchSize, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		benchHighland = bb
	}
	return benchHighland
}

func benchCfg() workload.Config { return workload.Config{Locations: 5, Seed: benchSeed} }

// --- Ablations (DESIGN.md Section 5) --------------------------------------

// BenchmarkAblationMultiBase compares viewpoint-dependent strategies: the
// cost-model-driven multi-base plan against single-base and fixed strip
// counts, isolating the value of the optimizer of Section 5.3.
func BenchmarkAblationMultiBase(b *testing.B) {
	bb := highland(b)
	emin := bb.Terrain.LODPercentile(0.85)
	rois := workload.ROIs(benchCfg(), 0.10)
	cases := []struct {
		name string
		plan func(qp dmesh.QueryPlane) []costmodel.Strip
	}{
		{"SingleBase", func(qp dmesh.QueryPlane) []costmodel.Strip { return costmodel.EqualStrips(qp, 1) }},
		{"Optimizer", func(qp dmesh.QueryPlane) []costmodel.Strip { return bb.Model.PlanStrips(qp, 0) }},
		{"Fixed4", func(qp dmesh.QueryPlane) []costmodel.Strip { return costmodel.EqualStrips(qp, 4) }},
		{"Fixed16", func(qp dmesh.QueryPlane) []costmodel.Strip { return costmodel.EqualStrips(qp, 16) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var da uint64
			for i := 0; i < b.N; i++ {
				da = 0
				for _, roi := range rois {
					qp := workload.PlaneFor(roi, emin, bb.EffectiveMaxLOD(), 0.5)
					qda, err := dmesh.MeasuredRun(bb.DM, func() error {
						_, err := bb.DM.ExecuteStrips(qp, c.plan(qp))
						return err
					})
					if err != nil {
						b.Fatal(err)
					}
					da += qda
				}
			}
			b.ReportMetric(float64(da)/float64(len(rois)), "DA/query")
		})
	}
}

// BenchmarkAblationWarmCache quantifies the cold-cache methodology: the
// same query without flushing buffers between runs.
func BenchmarkAblationWarmCache(b *testing.B) {
	bb := highland(b)
	e := bb.Terrain.LODPercentile(0.9)
	roi := workload.ROIs(benchCfg(), 0.08)[0]
	b.Run("Cold", func(b *testing.B) {
		var da uint64
		for i := 0; i < b.N; i++ {
			qda, err := dmesh.MeasuredRun(bb.DM, func() error {
				_, err := bb.DM.ViewpointIndependent(roi, e)
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
			da = qda
		}
		b.ReportMetric(float64(da), "DA/query")
	})
	b.Run("Warm", func(b *testing.B) {
		// Prime once, then measure re-execution.
		if _, err := bb.DM.ViewpointIndependent(roi, e); err != nil {
			b.Fatal(err)
		}
		var da uint64
		for i := 0; i < b.N; i++ {
			bb.DM.ResetStats()
			if _, err := bb.DM.ViewpointIndependent(roi, e); err != nil {
				b.Fatal(err)
			}
			da = bb.DM.DiskAccesses()
		}
		b.ReportMetric(float64(da), "DA/query")
	})
}

// BenchmarkAblationPoolSize varies the buffer-pool size: once the pool is
// smaller than a query's working set, pages are re-read within a single
// query and the disk-access count rises above the cold minimum. Like the
// other ablations it runs on the figures' fixed-record layout, by name.
func BenchmarkAblationPoolSize(b *testing.B) {
	bb := highland(b)
	e := bb.Terrain.LODPercentile(0.8)
	roi := workload.ROIs(benchCfg(), 0.10)[0]
	for _, pool := range []int{8, 64, 4096} {
		b.Run(fmt.Sprintf("pool%d", pool), func(b *testing.B) {
			store, err := bb.Terrain.NewDMStoreWithPools(dmesh.StorePools{
				Data: pool, Index: pool, IDIndex: pool, Overflow: pool,
				Layout: dmesh.LayoutSTR,
			})
			if err != nil {
				b.Fatal(err)
			}
			var da uint64
			for i := 0; i < b.N; i++ {
				qda, err := dmesh.MeasuredRun(store, func() error {
					_, err := store.ViewpointIndependent(roi, e)
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
				da = qda
			}
			b.ReportMetric(float64(da), "DA/query")
		})
	}
}

// BenchmarkBuildPipeline measures end-to-end dataset construction (terrain
// generation, simplification, store building) — the once-off cost the
// paper excludes from query measurements.
func BenchmarkBuildPipeline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := dmesh.Build(dmesh.Config{Dataset: "highland", Size: 65, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := t.NewDMStore(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationVisibility compares the HDoV-tree against its
// visibility-blind LOD-R-tree mode, reproducing the paper's note that
// visibility selection helps little on open terrain.
func BenchmarkAblationVisibility(b *testing.B) {
	bb := highland(b)
	emin := bb.Terrain.LODPercentile(0.85)
	rois := workload.ROIs(benchCfg(), 0.10)
	for _, c := range []struct {
		name   string
		useDoV bool
	}{
		{"HDoV", true},
		{"LODRTree", false},
	} {
		b.Run(c.name, func(b *testing.B) {
			var da uint64
			for i := 0; i < b.N; i++ {
				da = 0
				for _, roi := range rois {
					qp := workload.PlaneFor(roi, emin, bb.EffectiveMaxLOD(), 0.5)
					qda, err := dmesh.MeasuredRun(bb.HDoV, func() error {
						var qerr error
						if c.useDoV {
							_, qerr = bb.HDoV.QueryPlane(qp)
						} else {
							_, qerr = bb.HDoV.QueryPlaneLODRTree(qp)
						}
						return qerr
					})
					if err != nil {
						b.Fatal(err)
					}
					da += qda
				}
			}
			b.ReportMetric(float64(da)/float64(len(rois)), "DA/query")
		})
	}
}

// BenchmarkParallelThroughput measures concurrent query serving: the
// figure-6(a) uniform workload answered through Store.QueryBatch against
// a sharded buffer pool, one cold round per iteration. One serial round
// (workers=1) runs before the benchmark loop for its DA only.
// The load-bearing invariant is DA/query: sharing the pool means a page
// is read from the backend once no matter how many workers race to it,
// so parallelism must leave the paper's metric untouched (serial and
// parallel DA/query are both reported; they must match).
func BenchmarkParallelThroughput(b *testing.B) {
	bb := highland(b)
	workers := runtime.GOMAXPROCS(0)
	store, err := bb.Terrain.NewDMStoreWithPools(dmesh.StorePools{Shards: workers})
	if err != nil {
		b.Fatal(err)
	}
	e := bb.Terrain.LODPercentile(0.97)
	rois := workload.ROIs(benchCfg(), 0.06)
	qs := make([]dmesh.BatchQuery, 0, len(rois)*4)
	for r := 0; r < 4; r++ {
		for _, roi := range rois {
			qs = append(qs, dmesh.BatchQuery{ROI: roi, E: e})
		}
	}

	coldRound := func(w int) (uint64, float64) {
		b.Helper()
		// DA comes from the batch's per-session attribution, not the pool
		// total MeasuredRun returns.
		var da uint64
		var secs float64
		if _, err := dmesh.MeasuredRun(store, func() error {
			start := time.Now()
			out := store.QueryBatch(qs, w)
			secs = time.Since(start).Seconds()
			for i, r := range out {
				if r.Err != nil {
					b.Fatalf("query %d: %v", i, r.Err)
				}
				da += r.DA
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		return da, secs
	}

	serialDA, _ := coldRound(1)

	var parDA uint64
	var parSecs float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		da, secs := coldRound(workers)
		parDA += da
		parSecs += secs
	}
	b.StopTimer()

	n := float64(b.N)
	b.ReportMetric(float64(len(qs))*n/parSecs, "queries/sec")
	b.ReportMetric(float64(parDA)/(float64(len(qs))*n), "DA/query")
	b.ReportMetric(float64(serialDA)/float64(len(qs)), "serial-DA/query")
}
