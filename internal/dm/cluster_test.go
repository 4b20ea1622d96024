package dm

import (
	"math"
	"testing"

	"dmesh/internal/geom"
	"dmesh/internal/rtree"
)

// TestDefaultLayoutClusteredOnIndex is what "the heap is clustered on the
// index" means, checked leaf by leaf on the default layout: the records an
// R*-tree leaf points at are one run of consecutive data pages, the runs
// follow each other in leaf order sharing at most a boundary page, and a
// run is no longer than that many records need at the store's realized
// density plus one page for the boundary it starts inside and one for the
// spread of record sizes (a leaf of coarse nodes carries longer lists than
// the average record: 3 of 64 leaves at this scale use that page). Summed,
// a visited leaf implies at most data factor + 1 pages — the cost model's
// leaf weight — and the data factor is exactly the realized density
// applied to the average leaf.
func TestDefaultLayoutClusteredOnIndex(t *testing.T) {
	for _, name := range []string{"highland", "crater"} {
		ds := buildDatasetOnly(t, 33, name)
		s := newTestStore(t, ds)
		if s.Layout() != LayoutPacked {
			t.Fatalf("default layout is %v, want packed", s.Layout())
		}
		recsPerPage := float64(s.NumNodes()) / float64(s.DataPages())

		// Search and Nodes both walk the tree depth-first in on-disk entry
		// order, so a whole-space search lists the refs leaf after leaf, in
		// the order Nodes lists the leaves.
		var refs []int64
		everything := geom.Box{MinX: math.Inf(-1), MinY: math.Inf(-1), MinE: math.Inf(-1),
			MaxX: math.Inf(1), MaxY: math.Inf(1), MaxE: math.Inf(1)}
		if err := s.rt.Search(everything, func(ref int64, _ geom.Box) bool {
			refs = append(refs, ref)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if int64(len(refs)) != s.NumNodes() {
			t.Fatalf("%s: search over everything found %d of %d records", name, len(refs), s.NumNodes())
		}
		leaves, spanned, lastPage := 0, 0, int64(0)
		err := s.rt.Nodes(func(ni rtree.NodeInfo) bool {
			if ni.Level != 1 {
				return true
			}
			leaves++
			lo, hi := int64(math.MaxInt64), int64(0)
			pages := make(map[int64]struct{})
			for _, ref := range refs[:ni.Entries] {
				page := ref >> 16 // a variable-record RID is page<<16 | slot
				pages[page] = struct{}{}
				lo, hi = min(lo, page), max(hi, page)
			}
			refs = refs[ni.Entries:]
			if int64(len(pages)) != hi-lo+1 {
				t.Errorf("%s: leaf %d's records lie on %d pages of [%d, %d]: not one run", name, leaves, len(pages), lo, hi)
			}
			if lo < lastPage {
				t.Errorf("%s: leaf %d starts on page %d, before the previous leaf's last page %d", name, leaves, lo, lastPage)
			}
			lastPage = hi
			spanned += len(pages)
			if bound := math.Ceil(float64(ni.Entries)/recsPerPage) + 2; float64(len(pages)) > bound {
				t.Errorf("%s: a leaf of %d records spans %d data pages, want <= %.0f at %.1f records/page",
					name, ni.Entries, len(pages), bound, recsPerPage)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(refs) != 0 || leaves == 0 {
			t.Fatalf("%s: %d leaves, %d refs unaccounted", name, leaves, len(refs))
		}

		m, err := s.CostModel()
		if err != nil {
			t.Fatal(err)
		}
		if want := m.AvgLeafEntries() / recsPerPage; m.DataFactor() != want {
			t.Errorf("%s: cost model data factor %v, want AvgLeafEntries/(NumNodes/DataPages) = %v", name, m.DataFactor(), want)
		}
		if perLeaf := float64(spanned) / float64(leaves); perLeaf > m.DataFactor()+1 {
			t.Errorf("%s: a leaf spans %.2f data pages on average, the cost model charges at most %.2f", name, perLeaf, m.DataFactor()+1)
		}
	}
}
