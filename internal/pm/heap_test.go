package pm

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

// The PM baseline's in-memory store holds each page once, as the DM
// store does (dm.TestInMemoryStoreHoldsEachPageOnce): with every page
// touched, its retained heap is its page bytes and little else.
func TestInMemoryStoreHoldsEachPageOnce(t *testing.T) {
	tree, _ := buildTree(t, 129)
	base := liveHeap()
	s, err := BuildStore(tree)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 20; i++ { // e = 0 alone reads every quadtree page
		if _, err := s.QueryUniform(fullRect(), eAtPercentile(tree, float64(i)/20)); err != nil {
			t.Fatal(err)
		}
	}
	for id := int64(0); id < int64(tree.Len()); id += 97 { // and the ID index
		if _, err := s.fetchByID(id); err != nil {
			t.Fatal(err)
		}
	}
	retained := liveHeap() - base
	pageBytes := uint64(s.qtP.NumPages()+s.idxP.NumPages()) * pager.PageSize
	t.Logf("retained %d B: %.2f x %d page bytes", retained, float64(retained)/float64(pageBytes), pageBytes)
	if float64(retained) > 1.15*float64(pageBytes) {
		t.Fatalf("the store retains %d B of heap, more than 1.15 x its %d page bytes", retained, pageBytes)
	}
	runtime.KeepAlive(s)
	runtime.KeepAlive(tree)
}
