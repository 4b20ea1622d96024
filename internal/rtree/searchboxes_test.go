package rtree

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"dmesh/internal/geom"
	"dmesh/internal/storage/faultfs"
	"dmesh/internal/storage/pager"
)

// boxLists returns the query lists the multi-box search is held to: the
// shapes a cube plan takes (disjoint strips along an axis, thin in e) and
// the ones it must merely survive.
func boxLists(rng *rand.Rand) map[string][]geom.Box {
	strips := func(n int) []geom.Box {
		// A slanted plane over [0.1, 0.9]² cut into n strips along x, each
		// a thin e-slab: MultiBase's plan.
		out := make([]geom.Box, n)
		for i := range out {
			x0, x1 := 0.1+0.8*float64(i)/float64(n), 0.1+0.8*float64(i+1)/float64(n)
			out[i] = geom.Box{MinX: x0, MinY: 0.1, MinE: 0.2 + 0.5*x0, MaxX: x1, MaxY: 0.9, MaxE: 0.2 + 0.5*x1}
		}
		return out
	}
	overlapping := make([]geom.Box, 12)
	for i := range overlapping {
		overlapping[i] = randBox(rng, 0.5)
	}
	nested := make([]geom.Box, 6)
	for i := range nested {
		d := 0.07 * float64(i)
		nested[i] = geom.Box{MinX: d, MinY: d, MinE: d, MaxX: 1 - d, MaxY: 1 - d, MaxE: 1 - d}
	}
	b := randBox(rng, 0.3)
	planes := make([]geom.Box, 5)
	for i := range planes {
		e := rng.Float64()
		planes[i] = geom.Box{MinX: 0.2, MinY: 0.1 * float64(i), MinE: e, MaxX: 0.8, MaxY: 0.1*float64(i) + 0.3, MaxE: e}
	}
	nothing := geom.Box{MinX: 5, MinY: 5, MinE: 5, MaxX: 6, MaxY: 6, MaxE: 6}
	return map[string][]geom.Box{
		"one":         {randBox(rng, 0.4)},
		"strips16":    strips(16),
		"strips64":    strips(64),
		"overlapping": overlapping,
		"nested":      nested,
		"duplicated":  {b, b, randBox(rng, 0.3), b},
		"e-planes":    planes,
		"with-miss":   {randBox(rng, 0.3), nothing, randBox(rng, 0.3)},
		"all-miss":    {nothing, nothing},
		"empty":       {},
	}
}

// nodesReached counts the distinct nodes at least one of boxes reaches: the
// root, and every child whose parent some box reaches through an entry it
// intersects. Reads the tree through its own pager: run it before the
// cold measurement, not inside it.
func nodesReached(t *testing.T, tr *Tree, boxes []geom.Box) int {
	t.Helper()
	if len(boxes) == 0 {
		return 0
	}
	var walk func(id pager.PageID, reach []geom.Box) int
	walk = func(id pager.PageID, reach []geom.Box) int {
		n, err := tr.readNode(id)
		if err != nil {
			t.Fatal(err)
		}
		count := 1
		if n.leaf {
			return count
		}
		for _, e := range n.entries {
			var sub []geom.Box
			for _, b := range reach {
				if e.box.Intersects(b) {
					sub = append(sub, b)
				}
			}
			if len(sub) > 0 {
				count += walk(pager.PageID(e.ref), sub)
			}
		}
		return count
	}
	return walk(tr.root, boxes)
}

// perBoxRefs is the reference: one Search per box, the refs of each kept
// apart, and the pages the loop read cold.
func perBoxRefs(t *testing.T, p *pager.Pager, tr *Tree, boxes []geom.Box) ([][]int64, uint64) {
	t.Helper()
	out := make([][]int64, len(boxes))
	var reads uint64
	for q, b := range boxes {
		// Cold before each box: the per-box sum is what a caller with no
		// shared pool would pay.
		if err := p.DropCache(); err != nil {
			t.Fatal(err)
		}
		p.ResetStats()
		if err := tr.Search(b, func(ref int64, _ geom.Box) bool {
			out[q] = append(out[q], ref)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		reads += p.Stats().Reads
	}
	return out, reads
}

// bulkBackend bulk-loads n random boxes of sides up to size and returns the
// flushed backend and the tree's height.
func bulkBackend(t *testing.T, rng *rand.Rand, n int, size float64) (*pager.MemBackend, int) {
	t.Helper()
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Box: randBox(rng, size), Ref: int64(i)}
	}
	be := pager.NewMemBackend()
	p := pager.New(be, 1024)
	tr, err := BulkLoad(p, items)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	return be, tr.height
}

// searchBoxesTrees is the fixture: trees of heights 1, 2 and 3 over small
// boxes ("bulk") and over wide ones ("wide"), whose inner nodes' MBRs
// overlap so that a box reaches a node through some of its parent's
// entries and not others. Flushed to their backends so that each case can
// open them (read-only) through a pager of its own. Built once.
func searchBoxesTrees(t *testing.T) map[string]*pager.MemBackend {
	t.Helper()
	searchBoxesFixture.once.Do(func() {
		rng := rand.New(rand.NewSource(28))
		out := map[string]*pager.MemBackend{}
		for _, n := range []int{40, 3000, 12000} {
			be, h := bulkBackend(t, rng, n, 0.02)
			out[fmt.Sprintf("bulk/h%d", h)] = be
		}
		for _, n := range []int{40, 1500, 7000} {
			be, h := bulkBackend(t, rng, n, 0.2)
			out[fmt.Sprintf("wide/h%d", h)] = be
		}
		searchBoxesFixture.trees = out
	})
	for _, want := range []string{"bulk/h1", "bulk/h2", "bulk/h3", "wide/h1", "wide/h2", "wide/h3"} {
		if searchBoxesFixture.trees[want] == nil {
			t.Fatalf("fixture has no %s tree (have %d trees)", want, len(searchBoxesFixture.trees))
		}
	}
	return searchBoxesFixture.trees
}

var searchBoxesFixture struct {
	once  sync.Once
	trees map[string]*pager.MemBackend
}

// TestSearchBoxesMatchesSearch holds the multi-box search to the per-box
// loop it replaces: for every box of every list the refs reported for it
// are Search(box)'s, in Search(box)'s order; cold, the pages read are the
// distinct nodes any box reaches — never more than the per-box sum; fn
// returning false ends the search after that callback with nothing left
// pinned.
func TestSearchBoxesMatchesSearch(t *testing.T) {
	for name, be := range searchBoxesTrees(t) {
		p := pager.New(be, 1024)
		tr, err := Open(p)
		if err != nil {
			t.Fatal(err)
		}
		for listName, boxes := range boxLists(rand.New(rand.NewSource(7))) {
			label := name + "/" + listName
			want, perBoxReads := perBoxRefs(t, p, tr, boxes)
			distinct := nodesReached(t, tr, boxes)

			if err := p.DropCache(); err != nil {
				t.Fatal(err)
			}
			p.ResetStats()
			got := make([][]int64, len(boxes))
			total := 0
			if err := tr.SearchBoxes(boxes, nil, func(q int, ref int64, box geom.Box) bool {
				if !box.Intersects(boxes[q]) {
					t.Fatalf("%s: box %d handed entry %v it does not intersect", label, q, box)
				}
				got[q] = append(got[q], ref)
				total++
				return true
			}); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			reads := p.Stats().Reads
			for q := range boxes {
				if !slices.Equal(got[q], want[q]) {
					t.Fatalf("%s: box %d got %d refs, Search %d, or in another order", label, q, len(got[q]), len(want[q]))
				}
			}
			if reads != uint64(distinct) {
				t.Errorf("%s: %d pages read cold, %d distinct nodes reached", label, reads, distinct)
			}
			if reads > perBoxReads {
				t.Errorf("%s: %d pages read cold, per-box searches read %d", label, reads, perBoxReads)
			}

			// Early stop, at the first callback and mid-way.
			for _, stopAt := range []int{1, total / 2} {
				if stopAt < 1 || stopAt > total {
					continue
				}
				calls := 0
				if err := tr.SearchBoxes(boxes, nil, func(int, int64, geom.Box) bool {
					calls++
					return calls != stopAt
				}); err != nil {
					t.Fatalf("%s stop %d: %v", label, stopAt, err)
				}
				if calls != stopAt {
					t.Errorf("%s: %d callbacks after fn returned false at %d", label, calls, stopAt)
				}
				if err := p.DropCache(); err != nil {
					t.Errorf("%s stop %d: %v", label, stopAt, err)
				}
			}
			if st := p.Stats(); st.UnpinErrors != 0 {
				t.Errorf("%s: %d unpin errors", label, st.UnpinErrors)
			}
		}
	}
}

// TestSearchBoxesPinsEachNodeOnce: the property a loop of searches cannot
// have. However many boxes reach a node it is pinned once — no buffer-pool
// hit, and through a four-frame pool that keeps nothing, still one read a
// distinct node.
func TestSearchBoxesPinsEachNodeOnce(t *testing.T) {
	for name, be := range searchBoxesTrees(t) {
		big := pager.New(be, 1024)
		ref, err := Open(big)
		if err != nil {
			t.Fatal(err)
		}
		p := pager.New(be, 4)
		tr, err := Open(p)
		if err != nil {
			t.Fatal(err)
		}
		for listName, boxes := range boxLists(rand.New(rand.NewSource(7))) {
			distinct := nodesReached(t, ref, boxes)
			if err := p.DropCache(); err != nil {
				t.Fatal(err)
			}
			p.ResetStats()
			if err := tr.SearchBoxes(boxes, nil, func(int, int64, geom.Box) bool { return true }); err != nil {
				t.Fatal(err)
			}
			if st := p.Stats(); st.Reads != uint64(distinct) || st.Hits != 0 {
				t.Errorf("%s/%s: %d reads and %d hits for %d distinct nodes", name, listName, st.Reads, st.Hits, distinct)
			}
		}
	}
}

// TestSearchBoxesCorruptChildCycle: a child pointer redirected back to the
// root trips the depth guard under a box list as it does under one box.
func TestSearchBoxesCorruptChildCycle(t *testing.T) {
	tr := buildCorruptibleTree(t, 500)
	root, err := tr.readNode(tr.root)
	if err != nil {
		t.Fatal(err)
	}
	root.entries[0].ref = int64(tr.root)
	rewriteNode(t, tr, root)
	all := geom.Box{MinX: -1, MinY: -1, MinE: -1, MaxX: 2, MaxY: 2, MaxE: 2}
	err = tr.SearchBoxes([]geom.Box{all, all, all}, nil, func(int, int64, geom.Box) bool { return true })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("SearchBoxes over child cycle = %v, want ErrCorrupt", err)
	}
	if err := tr.p.DropCache(); err != nil {
		t.Fatalf("after the cycle: %v", err)
	}
}

// TestSearchBoxesReadFault: a backend read that fails mid-descent comes
// back as the search's error, with every pin the descent took released
// exactly once — the pool can be dropped and has counted no stray Unpin.
func TestSearchBoxesReadFault(t *testing.T) {
	be, _ := bulkBackend(t, rand.New(rand.NewSource(28)), 12000, 0.02)
	boxes := boxLists(rand.New(rand.NewSource(7)))["strips16"]
	fb := faultfs.Wrap(be)
	p := pager.New(fb, 1024)
	tr, err := Open(p)
	if err != nil {
		t.Fatal(err)
	}
	pages := nodesReached(t, tr, boxes)
	if pages < 8 {
		t.Fatalf("plan reaches %d nodes: too few to fault mid-descent", pages)
	}
	for _, nth := range []uint64{1, 2, uint64(pages / 2), uint64(pages)} {
		if err := p.DropCache(); err != nil {
			t.Fatal(err)
		}
		fb.ResetStats()
		fb.SetSchedule(faultfs.Read, faultfs.Schedule{Nth: []uint64{nth}})
		err := tr.SearchBoxes(boxes, nil, func(int, int64, geom.Box) bool { return true })
		fb.Heal()
		if !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("read %d of %d faulted: SearchBoxes = %v, want the injected fault", nth, pages, err)
		}
		if err := p.DropCache(); err != nil {
			t.Fatalf("read %d faulted: %v", nth, err)
		}
	}
	if st := p.Stats(); st.UnpinErrors != 0 {
		t.Fatalf("%d unpin errors", st.UnpinErrors)
	}
}
