package quadtree

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"

	"dmesh/internal/geom"
	"dmesh/internal/storage/pager"
)

func payloadFor(i int) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b, uint64(i))
	return b
}

func payloadID(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) }

func buildItems(n int, seed int64, skewE bool) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		e := rng.Float64()
		if skewE {
			// Severe LOD skew, as the paper describes: most points near 0.
			e = e * e * e * e
		}
		items[i] = Item{X: rng.Float64(), Y: rng.Float64(), E: e, Payload: payloadFor(i)}
	}
	return items
}

func build(t testing.TB, items []Item) (*Tree, []Ref, *pager.Pager) {
	t.Helper()
	p := pager.New(pager.NewMemBackend(), 4096)
	tr, refs, err := Build(p, 16, items)
	if err != nil {
		t.Fatal(err)
	}
	return tr, refs, p
}

func queryIDs(t testing.TB, tr *Tree, box geom.Box) []int64 {
	t.Helper()
	var out []int64
	if err := tr.Query(box, func(x, y, e float64, payload []byte) bool {
		out = append(out, payloadID(payload))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func bruteIDs(items []Item, box geom.Box) []int64 {
	var out []int64
	for i, it := range items {
		if box.ContainsPoint(it.X, it.Y, it.E) {
			out = append(out, int64(i))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sameIDs(a, b []int64) bool {
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

func TestBuildValidation(t *testing.T) {
	p := pager.New(pager.NewMemBackend(), 64)
	if _, _, err := Build(p, 0, nil); err == nil {
		t.Error("zero payload size must fail")
	}
	if _, _, err := Build(p, 16, []Item{{Payload: make([]byte, 8)}}); err == nil {
		t.Error("wrong payload length must fail")
	}
}

func TestEmptyTree(t *testing.T) {
	tr, _, _ := build(t, nil)
	got := queryIDs(t, tr, geom.Box{MaxX: 1, MaxY: 1, MaxE: 1})
	if len(got) != 0 {
		t.Fatalf("empty tree returned %v", got)
	}
}

func TestQueryMatchesBruteForceUniform(t *testing.T) {
	items := buildItems(5000, 1, false)
	tr, _, _ := build(t, items)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 40; i++ {
		b := geom.Box{
			MinX: rng.Float64() * 0.8, MinY: rng.Float64() * 0.8, MinE: rng.Float64() * 0.8,
		}
		b.MaxX = b.MinX + rng.Float64()*0.3
		b.MaxY = b.MinY + rng.Float64()*0.3
		b.MaxE = b.MinE + rng.Float64()*0.3
		if got, want := queryIDs(t, tr, b), bruteIDs(items, b); !sameIDs(got, want) {
			t.Fatalf("query %d: got %d, want %d", i, len(got), len(want))
		}
	}
}

func TestQueryMatchesBruteForceSkewed(t *testing.T) {
	// The paper's scenario: uniform in (x, y), severely skewed in e.
	items := buildItems(5000, 3, true)
	tr, _, _ := build(t, items)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 40; i++ {
		b := geom.Box{
			MinX: rng.Float64() * 0.5, MinY: rng.Float64() * 0.5, MinE: 0,
		}
		b.MaxX = b.MinX + 0.3
		b.MaxY = b.MinY + 0.3
		b.MaxE = rng.Float64() * 0.1 // thin slabs where the data is dense
		if got, want := queryIDs(t, tr, b), bruteIDs(items, b); !sameIDs(got, want) {
			t.Fatalf("query %d: got %d, want %d", i, len(got), len(want))
		}
	}
}

func TestBoundaryInclusive(t *testing.T) {
	items := []Item{
		{X: 0.5, Y: 0.5, E: 0.5, Payload: payloadFor(0)},
		{X: 0, Y: 0, E: 0, Payload: payloadFor(1)},
		{X: 1, Y: 1, E: 1, Payload: payloadFor(2)},
	}
	tr, _, _ := build(t, items)
	got := queryIDs(t, tr, geom.Box{MinX: 0.5, MinY: 0.5, MinE: 0.5, MaxX: 1, MaxY: 1, MaxE: 1})
	if !sameIDs(got, []int64{0, 2}) {
		t.Fatalf("got %v", got)
	}
}

func TestDuplicateCoordinates(t *testing.T) {
	// Many records at the same point must not break the build (chained
	// leaves handle them).
	var items []Item
	for i := 0; i < 500; i++ {
		items = append(items, Item{X: 0.25, Y: 0.75, E: 0.1, Payload: payloadFor(i)})
	}
	tr, refs, _ := build(t, items)
	got := queryIDs(t, tr, geom.Box{MinX: 0.25, MinY: 0.75, MinE: 0.1, MaxX: 0.25, MaxY: 0.75, MaxE: 0.1})
	if len(got) != 500 {
		t.Fatalf("got %d of 500 duplicate records", len(got))
	}
	// All refs must still resolve.
	for i, r := range refs {
		_, _, _, payload, err := tr.Fetch(r)
		if err != nil {
			t.Fatal(err)
		}
		if payloadID(payload) != int64(i) {
			t.Fatalf("ref %d fetched wrong record", i)
		}
	}
}

func TestRefsResolve(t *testing.T) {
	items := buildItems(2000, 5, true)
	tr, refs, _ := build(t, items)
	for i, r := range refs {
		x, y, e, payload, err := tr.Fetch(r)
		if err != nil {
			t.Fatalf("Fetch(%d): %v", i, err)
		}
		if x != items[i].X || y != items[i].Y || e != items[i].E {
			t.Fatalf("ref %d coords (%g,%g,%g) != item (%g,%g,%g)", i, x, y, e, items[i].X, items[i].Y, items[i].E)
		}
		if payloadID(payload) != int64(i) {
			t.Fatalf("ref %d payload mismatch", i)
		}
	}
}

func TestFetchCostIsOnePage(t *testing.T) {
	items := buildItems(3000, 6, false)
	tr, refs, p := build(t, items)
	if err := p.DropCache(); err != nil {
		t.Fatal(err)
	}
	p.ResetStats()
	if _, _, _, _, err := tr.Fetch(refs[1234]); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Reads != 1 {
		t.Fatalf("cold Fetch cost %d reads, want 1", s.Reads)
	}
}

// TestPersistence checks that the tree lives in its pages: after the
// buffer pool is flushed and emptied, a query reads the same records back.
func TestPersistence(t *testing.T) {
	items := buildItems(1500, 7, true)
	p := pager.New(pager.NewMemBackend(), 4096)
	tr, _, err := Build(p, 16, items)
	if err != nil {
		t.Fatal(err)
	}
	box := geom.Box{MinX: 0.1, MinY: 0.1, MinE: 0, MaxX: 0.6, MaxY: 0.6, MaxE: 0.5}
	want := queryIDs(t, tr, box)
	if err := p.DropCache(); err != nil {
		t.Fatal(err)
	}
	if got := queryIDs(t, tr, box); !sameIDs(got, want) {
		t.Fatal("the tree returns different results after a cache drop")
	}
}

func TestEarlyStop(t *testing.T) {
	items := buildItems(1000, 8, false)
	tr, _, _ := build(t, items)
	n := 0
	err := tr.Query(geom.Box{MaxX: 1, MaxY: 1, MaxE: 1}, func(x, y, e float64, payload []byte) bool {
		n++
		return n < 7
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestThinSlabCheaperThanFullCube(t *testing.T) {
	// The adaptive e splits must make thin-slab queries (what DM-style
	// plane queries look like) cheaper than full-volume scans.
	items := buildItems(20000, 9, true)
	tr, _, p := build(t, items)
	if err := p.DropCache(); err != nil {
		t.Fatal(err)
	}
	p.ResetStats()
	queryIDs(t, tr, geom.Box{MinX: 0.4, MinY: 0.4, MinE: 0.0, MaxX: 0.6, MaxY: 0.6, MaxE: 0.001})
	slab := p.Stats().Reads

	if err := p.DropCache(); err != nil {
		t.Fatal(err)
	}
	p.ResetStats()
	queryIDs(t, tr, geom.Box{MaxX: 1, MaxY: 1, MaxE: 1})
	full := p.Stats().Reads
	if slab >= full {
		t.Fatalf("thin slab (%d) should cost less than full scan (%d)", slab, full)
	}
}

func BenchmarkQuery(b *testing.B) {
	items := buildItems(50000, 10, true)
	tr, _, _ := build(b, items)
	box := geom.Box{MinX: 0.3, MinY: 0.3, MinE: 0, MaxX: 0.6, MaxY: 0.6, MaxE: 0.3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		tr.Query(box, func(x, y, e float64, payload []byte) bool { n++; return true })
	}
}
