package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"dmesh/internal/geom"
	"dmesh/internal/storage/pager"
)

// newTree bulk-loads items into a fresh in-memory tree with a pool of the
// given size.
func newTree(t testing.TB, pool int, items []Item) *Tree {
	t.Helper()
	tr, err := BulkLoad(pager.New(pager.NewMemBackend(), pool), items)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func randBox(rng *rand.Rand, maxSize float64) geom.Box {
	x := rng.Float64()
	y := rng.Float64()
	e := rng.Float64()
	return geom.Box{
		MinX: x, MinY: y, MinE: e,
		MaxX: x + rng.Float64()*maxSize,
		MaxY: y + rng.Float64()*maxSize,
		MaxE: e + rng.Float64()*maxSize,
	}
}

// bruteForce returns the refs of items intersecting q.
func bruteForce(items []Item, q geom.Box) []int64 {
	var out []int64
	for _, it := range items {
		if it.Box.Intersects(q) {
			out = append(out, it.Ref)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func collect(t testing.TB, tr *Tree, q geom.Box) []int64 {
	t.Helper()
	var out []int64
	if err := tr.Search(q, func(ref int64, _ geom.Box) bool {
		out = append(out, ref)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEmptyTreeSearch(t *testing.T) {
	tr := newTree(t, 16, nil)
	got := collect(t, tr, geom.Box{MaxX: 1, MaxY: 1, MaxE: 1})
	if len(got) != 0 {
		t.Fatalf("empty tree returned %v", got)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadRejectsInvalidBox(t *testing.T) {
	p := pager.New(pager.NewMemBackend(), 16)
	if _, err := BulkLoad(p, []Item{{Box: geom.Box{MinX: 1, MaxX: 0, MaxY: 1, MaxE: 1}, Ref: 1}}); err == nil {
		t.Fatal("invalid box accepted")
	}
}

func TestVerticalSegmentWorkload(t *testing.T) {
	// The DM workload: degenerate boxes (vertical segments) queried with
	// horizontal planes.
	rng := rand.New(rand.NewSource(3))
	var items []Item
	for i := 0; i < 3000; i++ {
		x, y := rng.Float64(), rng.Float64()
		lo := rng.Float64() * 0.8
		hi := lo + rng.Float64()*0.2
		items = append(items, Item{Box: geom.VerticalSegment(x, y, lo, hi), Ref: int64(i)})
	}
	tr := newTree(t, 512, items)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		e := rng.Float64()
		plane := geom.BoxFromRect(geom.NewRect(0.2, 0.2, 0.7, 0.7), e, e)
		if got, want := collect(t, tr, plane), bruteForce(items, plane); !equalIDs(got, want) {
			t.Fatalf("plane query mismatch at e=%g", e)
		}
	}
}

func TestBulkLoadMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var items []Item
	for i := 0; i < 10000; i++ {
		items = append(items, Item{Box: randBox(rng, 0.01), Ref: int64(i)})
	}
	p := pager.New(pager.NewMemBackend(), 1024)
	tr, err := BulkLoad(p, items)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != int64(len(items)) {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		q := randBox(rng, 0.15)
		if got, want := collect(t, tr, q), bruteForce(items, q); !equalIDs(got, want) {
			t.Fatalf("query %d mismatch", i)
		}
	}
	// Point (degenerate) queries, each on an item's corner: boundaries count.
	for i := 0; i < 30; i++ {
		b := items[rng.Intn(len(items))].Box
		p := geom.Box{MinX: b.MaxX, MinY: b.MinY, MinE: b.MaxE, MaxX: b.MaxX, MaxY: b.MinY, MaxE: b.MaxE}
		if got, want := collect(t, tr, p), bruteForce(items, p); len(want) == 0 || !equalIDs(got, want) {
			t.Fatalf("point query %d: got %d refs, want %d (at least 1)", i, len(got), len(want))
		}
	}
}

func TestBulkLoadEmptyAndTiny(t *testing.T) {
	p := pager.New(pager.NewMemBackend(), 64)
	tr, err := BulkLoad(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(t, tr, geom.Box{MaxX: 1, MaxY: 1, MaxE: 1}); len(got) != 0 {
		t.Fatal("empty bulk load returned data")
	}

	p2 := pager.New(pager.NewMemBackend(), 64)
	tr2, err := BulkLoad(p2, []Item{{Box: geom.VerticalSegment(0.5, 0.5, 0, 1), Ref: 7}})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, tr2, geom.BoxFromRect(geom.NewRect(0, 0, 1, 1), 0.5, 0.5))
	if !equalIDs(got, []int64{7}) {
		t.Fatalf("got %v", got)
	}
	if tr2.Height() != 1 {
		t.Fatalf("tiny tree height = %d", tr2.Height())
	}

	// The sizes around the fanout: empty, one entry, one full leaf, one
	// entry more than a leaf holds, one more than two full levels hold.
	rng := rand.New(rand.NewSource(13))
	for _, c := range []struct{ n, height int }{
		{0, 1}, {1, 1}, {MaxEntries, 1}, {MaxEntries + 1, 2}, {MaxEntries*MaxEntries + 1, 3},
	} {
		items := make([]Item, c.n)
		for i := range items {
			items[i] = Item{Box: randBox(rng, 0.05), Ref: int64(i)}
		}
		tr := newTree(t, 256, items)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", c.n, err)
		}
		if tr.Len() != int64(c.n) || tr.Height() != c.height {
			t.Fatalf("n=%d: Len = %d, Height = %d, want height %d", c.n, tr.Len(), tr.Height(), c.height)
		}
		seen := make([]int, c.n)
		if err := tr.Search(geom.Box{MinX: -1, MinY: -1, MinE: -1, MaxX: 2, MaxY: 2, MaxE: 2}, func(ref int64, _ geom.Box) bool {
			seen[ref]++
			return true
		}); err != nil {
			t.Fatalf("n=%d: %v", c.n, err)
		}
		for ref, k := range seen {
			if k != 1 {
				t.Fatalf("n=%d: whole-space search found ref %d %d times", c.n, ref, k)
			}
		}
	}
}

func TestBulkLoadPacking(t *testing.T) {
	// STR should produce near-full leaves: node count close to n/MaxEntries.
	rng := rand.New(rand.NewSource(5))
	var items []Item
	const n = 20000
	for i := 0; i < n; i++ {
		items = append(items, Item{Box: randBox(rng, 0.002), Ref: int64(i)})
	}
	p := pager.New(pager.NewMemBackend(), 2048)
	tr, err := BulkLoad(p, items)
	if err != nil {
		t.Fatal(err)
	}
	leaves := 0
	err = tr.Nodes(func(ni NodeInfo) bool {
		if ni.Level == 1 {
			leaves++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	minLeaves := n / MaxEntries
	if leaves < minLeaves || leaves > minLeaves*13/10+3 {
		t.Fatalf("leaves = %d, want close to %d", leaves, minLeaves)
	}
}

func TestPersistence(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var items []Item
	for i := 0; i < 2000; i++ {
		items = append(items, Item{Box: randBox(rng, 0.02), Ref: int64(i)})
	}
	p := pager.New(pager.NewMemBackend(), 256)
	tr, err := BulkLoad(p, items)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.DropCache(); err != nil {
		t.Fatal(err)
	}
	tr2, err := Open(p)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Len() != 2000 || tr2.Height() != tr.Height() {
		t.Fatalf("reopened len=%d height=%d", tr2.Len(), tr2.Height())
	}
	q := geom.Box{MinX: 0.4, MinY: 0.4, MinE: 0.4, MaxX: 0.6, MaxY: 0.6, MaxE: 0.6}
	if got, want := collect(t, tr2, q), bruteForce(items, q); !equalIDs(got, want) {
		t.Fatal("reopened tree returns different results")
	}
}

func TestSearchEarlyStop(t *testing.T) {
	items := make([]Item, 1000)
	for i := range items {
		x := float64(i) / 1000
		items[i] = Item{Box: geom.VerticalSegment(x, x, 0, 1), Ref: int64(i)}
	}
	tr := newTree(t, 256, items)
	count := 0
	err := tr.Search(geom.Box{MaxX: 1, MaxY: 1, MaxE: 1}, func(int64, geom.Box) bool {
		count++
		return count < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestNodesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var items []Item
	for i := 0; i < 6000; i++ {
		items = append(items, Item{Box: randBox(rng, 0.01), Ref: int64(i)})
	}
	p := pager.New(pager.NewMemBackend(), 1024)
	tr, err := BulkLoad(p, items)
	if err != nil {
		t.Fatal(err)
	}
	var rootSeen bool
	total := 0
	err = tr.Nodes(func(ni NodeInfo) bool {
		total++
		if ni.Level == tr.Height() {
			rootSeen = true
		}
		if ni.Level < 1 || ni.Level > tr.Height() {
			t.Fatalf("node at impossible level %d", ni.Level)
		}
		if ni.Entries <= 0 {
			t.Fatal("empty node reported")
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rootSeen {
		t.Fatal("root not enumerated")
	}
	nn, err := tr.NumNodes()
	if err != nil {
		t.Fatal(err)
	}
	if nn != total {
		t.Fatalf("NumNodes = %d, enumeration saw %d", nn, total)
	}
}

func TestColdSearchCountsDiskAccesses(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var items []Item
	for i := 0; i < 20000; i++ {
		items = append(items, Item{Box: randBox(rng, 0.003), Ref: int64(i)})
	}
	p := pager.New(pager.NewMemBackend(), 4096)
	tr, err := BulkLoad(p, items)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.DropCache(); err != nil {
		t.Fatal(err)
	}
	p.ResetStats()
	small := geom.Box{MinX: 0.5, MinY: 0.5, MinE: 0.5, MaxX: 0.52, MaxY: 0.52, MaxE: 0.52}
	collect(t, tr, small)
	smallDA := p.Stats().Reads

	if err := p.DropCache(); err != nil {
		t.Fatal(err)
	}
	p.ResetStats()
	big := geom.Box{MinX: 0, MinY: 0, MinE: 0, MaxX: 1, MaxY: 1, MaxE: 1}
	collect(t, tr, big)
	bigDA := p.Stats().Reads

	if smallDA == 0 || bigDA == 0 {
		t.Fatal("cold queries must incur disk accesses")
	}
	if smallDA >= bigDA {
		t.Fatalf("small query (%d DA) should be cheaper than full scan (%d DA)", smallDA, bigDA)
	}
	nn, _ := tr.NumNodes()
	if bigDA != uint64(nn) {
		t.Fatalf("full-coverage query read %d pages, tree has %d nodes", bigDA, nn)
	}
}

func TestDeterministicBuild(t *testing.T) {
	build := func() []int64 {
		rng := rand.New(rand.NewSource(10))
		var items []Item
		for i := 0; i < 3000; i++ {
			items = append(items, Item{Box: randBox(rng, 0.01), Ref: int64(i)})
		}
		p := pager.New(pager.NewMemBackend(), 512)
		tr, err := BulkLoad(p, items)
		if err != nil {
			t.Fatal(err)
		}
		var order []int64
		tr.Search(geom.Box{MaxX: 1, MaxY: 1, MaxE: 1}, func(ref int64, _ geom.Box) bool {
			order = append(order, ref)
			return true
		})
		return order
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traversal order differs at %d", i)
		}
	}
}

func BenchmarkBulkLoad10k(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	var items []Item
	for i := 0; i < 10000; i++ {
		items = append(items, Item{Box: randBox(rng, 0.01), Ref: int64(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pager.New(pager.NewMemBackend(), 2048)
		if _, err := BulkLoad(p, append([]Item(nil), items...)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	var items []Item
	for i := 0; i < 50000; i++ {
		items = append(items, Item{Box: randBox(rng, 0.005), Ref: int64(i)})
	}
	p := pager.New(pager.NewMemBackend(), 8192)
	tr, err := BulkLoad(p, items)
	if err != nil {
		b.Fatal(err)
	}
	q := geom.Box{MinX: 0.4, MinY: 0.4, MinE: 0.4, MaxX: 0.5, MaxY: 0.5, MaxE: 0.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		tr.Search(q, func(int64, geom.Box) bool { n++; return true })
	}
}
