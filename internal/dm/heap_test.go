package dm

import (
	"runtime"
	"testing"

	"dmesh/internal/storage/pager"
)

// liveHeap returns the heap in use after the garbage, sync.Pool caches
// included, is collected.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// An in-memory store holds each page once: its pools use the MemBackend
// pages in place, so with every page touched the store's retained heap is
// its page bytes, its rung sets and little else. With a pool copy of every
// page it was near twice the page bytes.
func TestInMemoryStoreHoldsEachPageOnce(t *testing.T) {
	ds, _ := buildDataset(t, 129, "highland")
	base := liveHeap()
	s := newTestStore(t, ds)
	defer s.Close()
	lods := s.Rungs()
	for i := 0; i <= 20; i++ {
		lods = append(lods, eAtPercentile(ds, float64(i)/20))
	}
	for _, e := range append(lods, 0) { // a whole-space query at every LOD touches every record page
		if _, err := s.ViewpointIndependent(fullRect(), e); err != nil {
			t.Fatal(err)
		}
	}
	for id := int64(0); id < s.NumNodes(); id += 97 { // and the ID index
		if _, err := s.FetchByID(id); err != nil {
			t.Fatal(err)
		}
	}
	retained := liveHeap() - base
	var pageBytes uint64
	for _, p := range s.pagers() {
		pageBytes += uint64(p.NumPages()) * pager.PageSize
	}
	rungBytes := uint64(len(s.rungs.live)) * uint64(len(s.rungs.live[0])) * 8
	limit := 1.15*float64(pageBytes) + float64(rungBytes)
	t.Logf("retained %d B: %.2f x %d page bytes + %d rung-set bytes",
		retained, (float64(retained)-float64(rungBytes))/float64(pageBytes), pageBytes, rungBytes)
	if float64(retained) > limit {
		t.Fatalf("the store retains %d B of heap, more than 1.15 x its %d page bytes + %d rung-set bytes",
			retained, pageBytes, rungBytes)
	}
	runtime.KeepAlive(s)
	runtime.KeepAlive(ds)
}
