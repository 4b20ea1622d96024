package dm

import (
	"fmt"
	"testing"

	"dmesh/internal/geom"
	"dmesh/internal/workload"
)

// BenchmarkMultiBaseCold is the repository benchmark's cold_direct
// viewpoint-dependent op, alone: highland 257², the packed store behind
// pools of 64/16/64/16 pages, planes from the 75th LOD percentile to the
// maximum at half the maximum angle over ROIs of area 0.01, 0.04 and 0.16
// (the planner answers with 16, 32 and 64 strips), caches dropped before
// every query off the timer. strips/op and DA/op say which plans ran and
// that they read what they always read; ns/op and allocs/op are what a
// change to the plan's execution moves.
func BenchmarkMultiBaseCold(b *testing.B) {
	ds, _ := buildDataset(b, 257, "highland")
	s, err := BuildStore(ds, StorePools{Data: 64, Overflow: 16, Index: 64, IDIndex: 16})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	model, err := s.CostModel()
	if err != nil {
		b.Fatal(err)
	}
	emin := eAtPercentile(ds, 0.75)
	for _, area := range []float64{0.01, 0.04, 0.16} {
		rois := workload.ROIs(workload.Config{Seed: 28, Locations: 16}, area)
		planes := make([]geom.QueryPlane, len(rois))
		for i, roi := range rois {
			planes[i] = workload.PlaneFor(roi, emin, ds.MaxE(), 0.5)
		}
		b.Run(fmt.Sprintf("area=%g", area), func(b *testing.B) {
			var da uint64
			var strips, records int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := s.DropCaches(); err != nil {
					b.Fatal(err)
				}
				s.ResetStats()
				b.StartTimer()
				res, err := s.MultiBase(planes[i%len(planes)], model, 0)
				if err != nil {
					b.Fatal(err)
				}
				da += s.DiskAccesses()
				strips += res.Strips
				records += res.FetchedRecords
			}
			b.ReportMetric(float64(da)/float64(b.N), "DA/op")
			b.ReportMetric(float64(strips)/float64(b.N), "strips/op")
			b.ReportMetric(float64(records)/float64(b.N), "records/op")
		})
	}
}
