package btree

import (
	"errors"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"dmesh/internal/storage/pager"
)

// openBuilt builds the tree over vals on a fresh in-memory backend and
// opens it through a pager of poolPages pages.
func openBuilt(t testing.TB, vals []int64, poolPages int) (*Tree, *pager.Pager) {
	t.Helper()
	b := pager.NewMemBackend()
	if err := Build(b, vals); err != nil {
		t.Fatal(err)
	}
	p := pager.New(b, poolPages)
	tr, err := Open(p)
	if err != nil {
		t.Fatal(err)
	}
	return tr, p
}

// denseTree maps key i to 3i+1 for i in [0, n).
func denseTree(t testing.TB, n int) (*Tree, *pager.Pager) {
	t.Helper()
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = 3*int64(i) + 1
	}
	return openBuilt(t, vals, 256)
}

func TestEmptyTree(t *testing.T) {
	tr, _ := denseTree(t, 0)
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if _, err := tr.Get(0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get on empty: %v", err)
	}
	h, err := tr.Height()
	if err != nil || h != 1 {
		t.Fatalf("Height = %d, %v", h, err)
	}
}

// TestPutGetSmall builds 50 keys, one leaf, and gets each back.
func TestPutGetSmall(t *testing.T) {
	tr, _ := denseTree(t, 50)
	for i := int64(0); i < 50; i++ {
		v, err := tr.Get(i)
		if err != nil || v != 3*i+1 {
			t.Fatalf("Get(%d) = %d, %v", i, v, err)
		}
	}
	if tr.Len() != 50 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

// TestLargeRandomInsert builds 20 000 random values, two levels, and
// gets them back in random order.
func TestLargeRandomInsert(t *testing.T) {
	const n = 20000
	rng := rand.New(rand.NewSource(42))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63()
	}
	tr, _ := openBuilt(t, vals, 256)
	if h, err := tr.Height(); err != nil || h != 2 {
		t.Fatalf("Height = %d, %v; want 2 for %d keys", h, err, n)
	}
	for _, k := range rng.Perm(n) {
		if v, err := tr.Get(int64(k)); err != nil || v != vals[k] {
			t.Fatalf("Get(%d) = %d, %v; want %d", k, v, err, vals[k])
		}
	}
	if _, err := tr.Get(n); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
}

func TestBuildRequiresEmptyBackend(t *testing.T) {
	b := pager.NewMemBackend()
	if _, err := b.Allocate(); err != nil {
		t.Fatal(err)
	}
	if err := Build(b, []int64{1}); err == nil {
		t.Fatal("Build over a non-empty backend succeeded")
	}
}

func TestRangeScan(t *testing.T) {
	tr, _ := denseTree(t, 5000)
	var got []int64
	err := tr.Range(100, 120, func(k, v int64) bool {
		if v != 3*k+1 {
			t.Fatalf("Range saw (%d, %d)", k, v)
		}
		got = append(got, k)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 21 || got[0] != 100 || got[20] != 120 {
		t.Fatalf("Range = %v", got)
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
	// Empty ranges: inverted, and past the last key.
	for _, r := range [][2]int64{{101, 100}, {5000, 1 << 60}} {
		visited := false
		tr.Range(r[0], r[1], func(k, v int64) bool { visited = true; return true })
		if visited {
			t.Errorf("Range(%d, %d) must be empty", r[0], r[1])
		}
	}
}

func TestRangeIsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 8000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63()
	}
	tr, _ := openBuilt(t, vals, 256)
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

// TestPersistence builds onto a file, closes it and reads the tree back
// from a fresh backend over the same file.
func TestPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "id.btree")
	b, err := pager.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, 3000)
	for i := range vals {
		vals[i] = int64(i) + 1
	}
	if err := Build(b, vals); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if b, err = pager.OpenFile(path); err != nil {
		t.Fatal(err)
	}
	p := pager.New(b, 64)
	defer p.Close()
	tr, err := Open(p)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3000 {
		t.Fatalf("reopened Len = %d", tr.Len())
	}
	for i := int64(0); i < 3000; i += 113 {
		v, err := tr.Get(i)
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
	tr, p := denseTree(t, 50000)
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

func BenchmarkGet(b *testing.B) {
	const n = 100000
	tr, _ := denseTree(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Get(int64(i % n)); err != nil {
			b.Fatal(err)
		}
	}
}
