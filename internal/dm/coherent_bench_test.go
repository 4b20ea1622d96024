package dm

import (
	"testing"

	"dmesh/internal/workload"
)

// BenchmarkCoherentFrame is a coherent session on its own: one single-base
// frame per iteration along a seeded camera path over highland 129²
// (packed store, default pools, cost-model fallback on), shaped like the
// repository benchmark's flyover — a 0.4 x 0.3 view advancing a tenth of
// its height a frame with 5 % lateral drift, near and far at the 75th and
// 99th LOD percentiles. The path ping-pongs, so any b.N stays on it; the
// lap of warm-up stops one frame short, so the first timed frame is a
// delta, and every jump from the path's last frame back to its first runs
// full. After the warm-up every page is a pool hit: ns/op, B/op and
// allocs/op are the reconcile and the assembly. retained/op and
// fetched/op are the records a frame kept and read.
func BenchmarkCoherentFrame(b *testing.B) {
	ds, _ := buildDataset(b, 129, "highland")
	s := newTestStore(b, ds)
	model, err := s.CostModel()
	if err != nil {
		b.Fatal(err)
	}
	planes := workload.CameraPath{
		Frames: 512, ViewWidth: 0.4, ViewHeight: 0.3, Overlap: 0.9, Drift: 0.05, Axis: 1, Seed: 1,
		EMin: eAtPercentile(ds, 0.75), EMax: eAtPercentile(ds, 0.99),
	}.Planes()
	cs := s.NewCoherentSession(model)
	last := len(planes) - 1
	for _, qp := range planes[:last] { // warms the pools and the scratch
		if _, _, err := cs.Frame(qp); err != nil {
			b.Fatal(err)
		}
	}
	var retained, fetched int
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		_, st, err := cs.Frame(planes[(last+i)%len(planes)])
		if err != nil {
			b.Fatal(err)
		}
		retained += st.Retained
		fetched += st.Fetched
	}
	b.ReportMetric(float64(retained)/float64(b.N), "retained/op")
	b.ReportMetric(float64(fetched)/float64(b.N), "fetched/op")
}
