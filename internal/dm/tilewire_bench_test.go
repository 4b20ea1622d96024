package dm

import (
	"sync"
	"testing"

	"dmesh/internal/geom"
)

// The cluster hot path's shape: highland 257², the 95th-percentile LOD,
// a 0.2-side ROI covered by level-2 tiles — what the repository
// benchmark's hot_patch workload fans out, so these numbers reproduce
// its dm.tilewire_* and dm.stitch_ms ledger rows with `go test -bench`.
var hotTiles struct {
	once  sync.Once
	roi   geom.Rect
	e     float64
	tiles []*TilePatch
	wire  [][]byte
	nodes int
	bytes int
}

func hotPatchTiles(tb testing.TB) {
	tb.Helper()
	h := &hotTiles
	h.once.Do(func() {
		ds, _ := buildDataset(tb, 257, "highland")
		s := newTestStore(tb, ds)
		h.roi = geom.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.5, MaxY: 0.5}
		h.e = eAtPercentile(ds, 0.95)
		for _, r := range tileCover(s, h.roi, 2) {
			tp, err := s.MaterializeTile(r, h.e)
			if err != nil {
				tb.Fatal(err)
			}
			w := EncodeTilePatch(tp)
			h.tiles = append(h.tiles, tp)
			h.wire = append(h.wire, w)
			h.nodes += len(tp.Nodes)
			h.bytes += len(w)
		}
	})
	if len(h.tiles) == 0 {
		tb.Fatal("hot-patch fixture failed to build")
	}
}

var benchSink int

func BenchmarkTilePatchEncode(b *testing.B) {
	hotPatchTiles(b)
	b.ReportAllocs()
	b.SetBytes(int64(hotTiles.bytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tp := range hotTiles.tiles {
			benchSink += len(EncodeTilePatch(tp))
		}
	}
	b.ReportMetric(float64(hotTiles.bytes)/float64(hotTiles.nodes), "B/vertex")
}

func BenchmarkTilePatchDecode(b *testing.B) {
	hotPatchTiles(b)
	b.ReportAllocs()
	b.SetBytes(int64(hotTiles.bytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range hotTiles.wire {
			tp, err := DecodeTilePatch(w)
			if err != nil {
				b.Fatal(err)
			}
			benchSink += len(tp.Nodes)
		}
	}
	b.ReportMetric(float64(hotTiles.bytes)/float64(hotTiles.nodes), "B/vertex")
}

func BenchmarkStitchDecodedTiles(b *testing.B) {
	hotPatchTiles(b)
	decoded := make([]*TilePatch, len(hotTiles.wire))
	for i, w := range hotTiles.wire {
		tp, err := DecodeTilePatch(w)
		if err != nil {
			b.Fatal(err)
		}
		decoded[i] = tp
	}
	b.ReportAllocs()
	b.SetBytes(int64(hotTiles.bytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := StitchTiles(hotTiles.roi, hotTiles.e, decoded)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(res.Vertices)
	}
	b.ReportMetric(float64(hotTiles.bytes)/float64(hotTiles.nodes), "B/vertex")
}

// TestTilePatchDecodeAllocsBounded pins the slab decode: a fixed dozen
// allocations (patch, reader, slab, three backing arrays, the map) plus
// the runtime's own per-table allocations for a pre-sized map — one table
// per ~900 entries — where the per-node decode paid two per node.
func TestTilePatchDecodeAllocsBounded(t *testing.T) {
	for _, size := range []int{9, 65} {
		ds, _ := buildDataset(t, size, "highland")
		tp, err := newTestStore(t, ds).MaterializeTile(fullRect(), eAtPercentile(ds, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		w := EncodeTilePatch(tp)
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := DecodeTilePatch(w); err != nil {
				t.Fatal(err)
			}
		})
		ceiling := float64(12 + len(tp.Nodes)/256)
		t.Logf("%d nodes, %d wire bytes: %.0f allocations", len(tp.Nodes), len(w), allocs)
		if allocs > ceiling {
			t.Errorf("decoding a %d-node patch: %.0f allocations, want <= %.0f", len(tp.Nodes), allocs, ceiling)
		}
	}
}
