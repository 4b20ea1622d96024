package rtree

import (
	"fmt"
	"math/rand"
	"testing"

	"dmesh/internal/geom"
	"dmesh/internal/storage/pager"
)

// searchRef is Search as it was before the descent stopped materializing
// nodes: read the node whole, then walk its entries. The reference the
// in-place descent must match visit for visit and page for page.
func (t *Tree) searchRef(id pager.PageID, query geom.Box, fn func(int64, geom.Box) bool, depth int) (bool, error) {
	if depth < 1 {
		return false, fmt.Errorf("%w: traversal exceeds height %d at node %d", ErrCorrupt, t.height, id)
	}
	n, err := t.readNode(id)
	if err != nil {
		return false, err
	}
	for _, e := range n.entries {
		if !e.box.Intersects(query) {
			continue
		}
		if n.leaf {
			if !fn(e.ref, e.box) {
				return false, nil
			}
		} else {
			cont, err := t.searchRef(pager.PageID(e.ref), query, fn, depth-1)
			if err != nil || !cont {
				return cont, err
			}
		}
	}
	return true, nil
}

type visit struct {
	ref int64
	box geom.Box
}

// coldVisits runs one search cold and returns the callback sequence (cut
// short after stopAt visits when stopAt > 0) and the pager's counters.
func coldVisits(t *testing.T, p *pager.Pager, stopAt int, search func(fn func(int64, geom.Box) bool) error) ([]visit, pager.Stats) {
	t.Helper()
	if err := p.DropCache(); err != nil {
		t.Fatal(err)
	}
	p.ResetStats()
	var out []visit
	if err := search(func(ref int64, box geom.Box) bool {
		out = append(out, visit{ref, box})
		return len(out) != stopAt
	}); err != nil {
		t.Fatal(err)
	}
	return out, p.Stats()
}

// TestSearchMatchesReference: on trees of small and of wide boxes, for
// random, empty and whole-space queries, the in-place descent makes the
// callbacks the node-reading descent makes, in the same order, stops
// where it stops when fn returns false, and costs the same page reads,
// hits and evictions cold at pool sizes 1, 4 and 64 (at most one index
// page is pinned at a time, so even a one-frame pool suffices).
func TestSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	backends := map[string]*pager.MemBackend{}
	{
		items := make([]Item, 20000)
		for i := range items {
			items[i] = Item{Box: randBox(rng, 0.01), Ref: int64(i)}
		}
		be := pager.NewMemBackend()
		p := pager.New(be, 1024)
		if _, err := BulkLoad(p, items); err != nil {
			t.Fatal(err)
		}
		if err := p.FlushAll(); err != nil {
			t.Fatal(err)
		}
		backends["bulk"] = be
	}
	{
		items := make([]Item, 3000)
		for i := range items {
			items[i] = Item{Box: randBox(rng, 0.2), Ref: int64(i)}
		}
		be := pager.NewMemBackend()
		p := pager.New(be, 1024)
		if _, err := BulkLoad(p, items); err != nil {
			t.Fatal(err)
		}
		if err := p.FlushAll(); err != nil {
			t.Fatal(err)
		}
		backends["wide"] = be
	}
	queries := []geom.Box{
		{MinX: -1, MinY: -1, MinE: -1, MaxX: 3, MaxY: 3, MaxE: 3}, // whole space
		{MinX: 5, MinY: 5, MinE: 5, MaxX: 6, MaxY: 6, MaxE: 6},    // misses everything
		{MinX: 0.5, MinY: 0.5, MinE: 0.5, MaxX: 0.4, MaxY: 0.4},   // inverted: intersects nothing
		{MinX: 0.3, MinY: 0.3, MinE: 0.3, MaxX: 0.3, MaxY: 0.3, MaxE: 0.3},
	}
	for i := 0; i < 40; i++ {
		queries = append(queries, randBox(rng, 0.4))
	}
	for name, be := range backends {
		for _, pool := range []int{1, 4, 64} {
			p := pager.New(be, pool)
			tr, err := Open(p)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Height() < 2 {
				t.Fatalf("%s tree has height %d", name, tr.Height())
			}
			for qi, q := range queries {
				for _, stopAt := range []int{0, 1, 7} {
					got, gotStats := coldVisits(t, p, stopAt, func(fn func(int64, geom.Box) bool) error {
						return tr.Search(q, fn)
					})
					want, wantStats := coldVisits(t, p, stopAt, func(fn func(int64, geom.Box) bool) error {
						_, err := tr.searchRef(tr.root, q, fn, tr.height)
						return err
					})
					if len(got) != len(want) {
						t.Fatalf("%s pool %d query %d stop %d: %d visits, reference %d", name, pool, qi, stopAt, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s pool %d query %d stop %d: visit %d is %+v, reference %+v", name, pool, qi, stopAt, i, got[i], want[i])
						}
					}
					if gotStats != wantStats {
						t.Fatalf("%s pool %d query %d stop %d: pager counters %+v, reference %+v", name, pool, qi, stopAt, gotStats, wantStats)
					}
					if qi == 0 && stopAt == 0 && int64(len(got)) != tr.Len() {
						t.Fatalf("%s: whole-space query visited %d of %d entries", name, len(got), tr.Len())
					}
				}
			}
		}
	}
}

// TestSearchAllocations: with the pool warm, a search's allocations do not
// grow with the pages it visits, nor with the boxes it answers. A pin costs
// none (the pager hands out a value handle and links the frame itself into
// its LRU list), so a search allocates only its two scratch stacks' growth
// — entries to visit, and which boxes reach the node — and both double.
// Measured: 5 allocations for 3 pages, 11 for 208 (3 of each are Search
// wrapping its one box as a list), and 9 for the 208 pages of the same
// volume cut into 64 strips.
func TestSearchAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	items := make([]Item, 50000)
	for i := range items {
		items[i] = Item{Box: randBox(rng, 0.005), Ref: int64(i)}
	}
	p := pager.New(pager.NewMemBackend(), 8192)
	tr, err := BulkLoad(p, items)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(qs ...geom.Box) (pages uint64, allocs float64) {
		search := func() {
			if err := tr.SearchBoxes(qs, func(int, int64, geom.Box) bool { return true }); err != nil {
				t.Fatal(err)
			}
		}
		if len(qs) == 1 {
			search = func() {
				if err := tr.Search(qs[0], func(int64, geom.Box) bool { return true }); err != nil {
					t.Fatal(err)
				}
			}
		}
		p.ResetStats()
		search()
		st := p.Stats()
		if st.Reads != 0 {
			t.Fatalf("pool not warm: %d reads", st.Reads)
		}
		return st.Hits, testing.AllocsPerRun(20, search)
	}
	big := geom.Box{MinX: 0.2, MinY: 0.2, MinE: 0.2, MaxX: 0.7, MaxY: 0.7, MaxE: 0.7}
	strips := make([]geom.Box, 64)
	for i := range strips {
		strips[i] = big
		strips[i].MinX, strips[i].MaxX = 0.2+0.5*float64(i)/64, 0.2+0.5*float64(i+1)/64
	}
	smallPages, smallAllocs := measure(geom.Box{MinX: 0.5, MinY: 0.5, MinE: 0.5, MaxX: 0.51, MaxY: 0.51, MaxE: 0.51})
	bigPages, bigAllocs := measure(big)
	stripPages, stripAllocs := measure(strips...)
	t.Logf("small query: %d pages, %.0f allocs; big query: %d pages, %.0f allocs; in 64 strips: %d pages, %.0f allocs",
		smallPages, smallAllocs, bigPages, bigAllocs, stripPages, stripAllocs)
	if bigPages < 50 || bigPages < 10*smallPages {
		t.Fatalf("big query visits %d pages, small %d: not the comparison intended", bigPages, smallPages)
	}
	if stripPages < bigPages {
		t.Fatalf("64 strips visit %d pages, their union %d", stripPages, bigPages)
	}
	const stackGrowth = 12
	for _, m := range []struct {
		pages  uint64
		allocs float64
	}{{smallPages, smallAllocs}, {bigPages, bigAllocs}} {
		if m.allocs > stackGrowth {
			t.Errorf("%.0f allocations over %d pages: more than the scratch stack's %d", m.allocs, m.pages, stackGrowth)
		}
	}
	// The box sub-lists stack in one arena: 64 boxes cost its few
	// doublings, not a term per box.
	const reachGrowth = 6
	if stripAllocs > bigAllocs+reachGrowth {
		t.Errorf("64 strips allocate %.0f, one box %.0f: more than a constant apart", stripAllocs, bigAllocs)
	}
}
