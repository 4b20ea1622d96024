package btree

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"dmesh/internal/storage/pager"
)

func newTree(t *testing.T, poolPages int) (*Tree, *pager.Pager) {
	t.Helper()
	p := pager.New(pager.NewMemBackend(), poolPages)
	tr, err := Create(p)
	if err != nil {
		t.Fatal(err)
	}
	return tr, p
}

func TestEmptyTree(t *testing.T) {
	tr, _ := newTree(t, 16)
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if _, err := tr.Get(1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get on empty: %v", err)
	}
	h, err := tr.Height()
	if err != nil || h != 1 {
		t.Fatalf("Height = %d, %v", h, err)
	}
}

func TestPutGetSmall(t *testing.T) {
	tr, _ := newTree(t, 16)
	for i := int64(0); i < 50; i++ {
		if err := tr.Put(i, i*10); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 50; i++ {
		v, err := tr.Get(i)
		if err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
		if v != i*10 {
			t.Fatalf("Get(%d) = %d", i, v)
		}
	}
	if tr.Len() != 50 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestOverwrite(t *testing.T) {
	tr, _ := newTree(t, 16)
	tr.Put(7, 1)
	tr.Put(7, 2)
	if tr.Len() != 1 {
		t.Fatalf("Len after overwrite = %d", tr.Len())
	}
	v, err := tr.Get(7)
	if err != nil || v != 2 {
		t.Fatalf("Get = %d, %v", v, err)
	}
}

func TestLargeRandomInsert(t *testing.T) {
	tr, _ := newTree(t, 256)
	const n = 20000
	rng := rand.New(rand.NewSource(42))
	keys := rng.Perm(n)
	for _, k := range keys {
		if err := tr.Put(int64(k), int64(k)*3); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	h, err := tr.Height()
	if err != nil {
		t.Fatal(err)
	}
	if h < 2 || h > 4 {
		t.Fatalf("unexpected height %d for %d keys", h, n)
	}
	for i := 0; i < n; i += 37 {
		v, err := tr.Get(int64(i))
		if err != nil || v != int64(i)*3 {
			t.Fatalf("Get(%d) = %d, %v", i, v, err)
		}
	}
	if _, err := tr.Get(n + 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
}

func TestNegativeAndSparseKeys(t *testing.T) {
	tr, _ := newTree(t, 64)
	keys := []int64{-1 << 40, -77, 0, 1, 1 << 50}
	for i, k := range keys {
		if err := tr.Put(k, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		v, err := tr.Get(k)
		if err != nil || v != int64(i) {
			t.Fatalf("Get(%d) = %d, %v", k, v, err)
		}
	}
}

func TestRangeScan(t *testing.T) {
	tr, _ := newTree(t, 256)
	for i := int64(0); i < 5000; i++ {
		tr.Put(i*2, i) // even keys only
	}
	var got []int64
	err := tr.Range(100, 120, func(k, v int64) bool {
		got = append(got, k)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{100, 102, 104, 106, 108, 110, 112, 114, 116, 118, 120}
	if len(got) != len(want) {
		t.Fatalf("Range = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range = %v", got)
		}
	}
	// Early stop.
	count := 0
	tr.Range(0, 1<<60, func(k, v int64) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("early stop visited %d", count)
	}
	// Empty range.
	visited := false
	tr.Range(101, 101, func(k, v int64) bool { visited = true; return true })
	if visited {
		t.Error("odd key range must be empty")
	}
}

func TestRangeIsSorted(t *testing.T) {
	tr, _ := newTree(t, 256)
	rng := rand.New(rand.NewSource(7))
	n := 8000
	for _, k := range rng.Perm(n) {
		tr.Put(int64(k), 0)
	}
	var got []int64
	tr.Range(-1<<62, 1<<62, func(k, v int64) bool {
		got = append(got, k)
		return true
	})
	if len(got) != n {
		t.Fatalf("full scan returned %d keys, want %d", len(got), n)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("range scan not sorted")
	}
}

func TestPersistence(t *testing.T) {
	p := pager.New(pager.NewMemBackend(), 64)
	tr, err := Create(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3000; i++ {
		tr.Put(i, i+1)
	}
	if err := p.DropCache(); err != nil {
		t.Fatal(err)
	}
	tr2, err := Open(p)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Len() != 3000 {
		t.Fatalf("reopened Len = %d", tr2.Len())
	}
	for i := int64(0); i < 3000; i += 113 {
		v, err := tr2.Get(i)
		if err != nil || v != i+1 {
			t.Fatalf("Get(%d) = %d, %v", i, v, err)
		}
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	p := pager.New(pager.NewMemBackend(), 8)
	fr, _ := p.Allocate()
	fr.Unpin()
	if _, err := Open(p); err == nil {
		t.Fatal("Open must reject bad magic")
	}
}

func TestColdGetCostIsHeight(t *testing.T) {
	tr, p := newTree(t, 512)
	for i := int64(0); i < 50000; i++ {
		tr.Put(i, i)
	}
	h, err := tr.Height()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.DropCache(); err != nil {
		t.Fatal(err)
	}
	p.ResetStats()
	if _, err := tr.Get(31337); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Reads != uint64(h) {
		t.Fatalf("cold Get cost %d disk accesses, want height %d", s.Reads, h)
	}
}

func BenchmarkPut(b *testing.B) {
	p := pager.New(pager.NewMemBackend(), 1024)
	tr, err := Create(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Put(int64(i), int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	p := pager.New(pager.NewMemBackend(), 1024)
	tr, _ := Create(p)
	const n = 100000
	for i := int64(0); i < n; i++ {
		tr.Put(i, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Get(int64(i % n)); err != nil {
			b.Fatal(err)
		}
	}
}
