package costmodel

import (
	"testing"

	"dmesh/internal/geom"
)

// The benchmarks plan over a bulk-loaded tree of 130 000 entries: about
// the 1 887 nodes the repository benchmark's 257² store has.
func benchModel(b *testing.B) *Model {
	b.Helper()
	m, err := FromRTree(buildTree(b, 130000, 1), unitSpace())
	if err != nil {
		b.Fatal(err)
	}
	m.SetDataFactor(1.6)
	m.SetSharedPool(true)
	return m
}

var (
	sinkStrips []Strip
	sinkDA     float64
)

// BenchmarkPlanStrips: one whole multi-base plan of a steep plane.
func BenchmarkPlanStrips(b *testing.B) {
	m := benchModel(b)
	qp := geom.QueryPlane{R: geom.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.62, MaxY: 0.62}, EMin: 0.05, EMax: 0.6, Axis: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkStrips = m.PlanStrips(qp, 0)
	}
	b.ReportMetric(float64(len(sinkStrips)), "strips")
}

// BenchmarkEstimateDA: one evaluation of formula (1).
func BenchmarkEstimateDA(b *testing.B) {
	m := benchModel(b)
	q := geom.Box{MinX: 0.3, MinY: 0.3, MinE: 0.1, MaxX: 0.62, MaxY: 0.4, MaxE: 0.2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDA = m.EstimateDA(q)
	}
}
