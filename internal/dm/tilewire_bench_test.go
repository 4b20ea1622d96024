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
	store *Store
	roi   geom.Rect
	e     float64
	rects []geom.Rect
	tiles []*TilePatch
	wire  [][]byte
	nodes int
	bytes int
	outs  int // out-pairs the four patches hold
}

// reportCensus puts the fixture's wire bytes and out-pairs per vertex
// beside the timing, so `make benchsmoke` prints the seam census.
func reportCensus(b *testing.B) {
	b.ReportMetric(float64(hotTiles.bytes)/float64(hotTiles.nodes), "B/vertex")
	b.ReportMetric(float64(hotTiles.outs)/float64(hotTiles.nodes), "outpairs/vertex")
}

func hotPatchTiles(tb testing.TB) {
	tb.Helper()
	h := &hotTiles
	h.once.Do(func() {
		ds, _ := buildDataset(tb, 257, "highland")
		s := newTestStore(tb, ds)
		h.store = s
		h.roi = geom.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.5, MaxY: 0.5}
		h.e = eAtPercentile(ds, 0.95)
		h.rects = tileCover(s, h.roi, 2)
		for _, r := range h.rects {
			tp, err := s.MaterializeTile(r, h.e)
			if err != nil {
				tb.Fatal(err)
			}
			w := EncodeTilePatch(tp)
			h.tiles = append(h.tiles, tp)
			h.wire = append(h.wire, w)
			h.nodes += tp.NumNodes()
			h.bytes += len(w)
			h.outs += len(tp.outPairs.far)
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
	reportCensus(b)
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
			benchSink += tp.NumNodes()
		}
	}
	reportCensus(b)
}

func benchStitch(b *testing.B, tiles []*TilePatch) {
	b.ReportAllocs()
	b.SetBytes(int64(hotTiles.bytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := StitchTiles(hotTiles.roi, hotTiles.e, tiles)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(res.Vertices)
	}
	reportCensus(b)
}

// BenchmarkStitchDecodedTiles is the router's stitch: patches off the wire.
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
	benchStitch(b, decoded)
}

// BenchmarkStitchResidentTiles is Cache.Query's stitch: store-materialized
// patches, the ROI cutting through all four.
func BenchmarkStitchResidentTiles(b *testing.B) {
	hotPatchTiles(b)
	benchStitch(b, hotTiles.tiles)
}

// BenchmarkMaterializeTile is a tile-cache miss below the cache: the four
// tiles' range queries (warm pool) and their patches.
func BenchmarkMaterializeTile(b *testing.B) {
	hotPatchTiles(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range hotTiles.rects {
			tp, err := hotTiles.store.MaterializeTile(r, hotTiles.e)
			if err != nil {
				b.Fatal(err)
			}
			benchSink += tp.NumNodes()
		}
	}
	reportCensus(b)
}

// TestTilePatchDecodeAllocsBounded pins the flat decode: the patch, IDs,
// positions and two arrays per non-empty pair list — at most seven
// allocations, whatever the patch's size — and none at all into a patch
// that has held it before, as the router's recycled patches have.
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
		t.Logf("%d nodes, %d wire bytes: %.0f allocations", tp.NumNodes(), len(w), allocs)
		if allocs > 9 {
			t.Errorf("decoding a %d-node patch: %.0f allocations, want <= 9", tp.NumNodes(), allocs)
		}
		warm := new(TilePatch)
		if allocs := testing.AllocsPerRun(10, func() {
			if err := DecodeTilePatchInto(w, warm); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 && !raceEnabled {
			t.Errorf("decoding a %d-node patch into a warm one: %.0f allocations, want 0", tp.NumNodes(), allocs)
		}
	}
}

// TestStitchAllocsBounded pins the flat stitch: the Result and its two
// slices beside whatever tables the runtime gives the pre-sized Vertices
// map — measured here by making that map alone — however many vertices
// the answer has. The working arrays (vertex list, cursors, index, two
// edge buffers, offsets) are scratchPool's, so the bound needs a pool that
// keeps what it is given: skipped under -race.
func TestStitchAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("-race: sync.Pool drops a random share of what is put back")
	}
	for _, size := range []int{9, 65} {
		ds, _ := buildDataset(t, size, "highland")
		s := newTestStore(t, ds)
		r := geom.Rect{MinX: 0.1, MinY: 0.2, MaxX: 0.8, MaxY: 0.9}
		e := eAtPercentile(ds, 0.5)
		var tiles []*TilePatch
		for _, tr := range tileCover(s, r, 1) {
			tp, err := s.MaterializeTile(tr, e)
			if err != nil {
				t.Fatal(err)
			}
			tiles = append(tiles, tp)
		}
		var res *Result
		allocs := testing.AllocsPerRun(10, func() {
			var err error
			if res, err = StitchTiles(r, e, tiles); err != nil {
				t.Fatal(err)
			}
		})
		mapAllocs := testing.AllocsPerRun(10, func() {
			m := make(map[int64]geom.Point3, len(res.Vertices))
			for id, p := range res.Vertices {
				m[id] = p
			}
			benchSink += len(m)
		})
		t.Logf("%d vertices: %.0f allocations, %.0f of them the Vertices map", len(res.Vertices), allocs, mapAllocs)
		if allocs > 4+mapAllocs {
			t.Errorf("stitching %d vertices: %.0f allocations, want <= 4 + the map's %.0f", len(res.Vertices), allocs, mapAllocs)
		}
	}
}
