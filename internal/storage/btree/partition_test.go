package btree

import (
	"testing"

	"dmesh/internal/storage/pager"
)

// TestBuildPartitionPinned pins the shape of a dense tree, level by
// level from the leaves up: how many nodes each level has, how many
// entries each holds (every node but a level's last holds 127,
// (MaxEntries+1)/2, and the last the remainder) and the height. It is
// the partition ascending one-key inserts with half splits left, which
// the PM baseline's disk-access figures were measured on; a fuller
// packing would move them. It also checks what every lookup relies on:
// an inner entry's key is its subtree's first key, leaves hold the keys
// in order and chain left to right, and page 0 is the meta page.
func TestBuildPartitionPinned(t *testing.T) {
	for _, c := range []struct {
		n     int
		nodes []int // per level, leaves first
		last  []int // entries in each level's last node
	}{
		{0, []int{1}, []int{0}},
		{1, []int{1}, []int{1}},
		{254, []int{1}, []int{254}},
		{255, []int{2, 1}, []int{128, 2}},
		{256, []int{2, 1}, []int{129, 2}},
		{381, []int{2, 1}, []int{254, 2}},
		{32385, []int{254, 1}, []int{254, 254}},
		{32386, []int{255, 2, 1}, []int{128, 128, 2}},
		{132097, []int{1040, 8, 1}, []int{144, 151, 8}},
	} {
		tr, p := denseTree(t, c.n)
		h, err := tr.Height()
		if err != nil || h != len(c.nodes) {
			t.Fatalf("N=%d: Height = %d, %v; want %d", c.n, h, err, len(c.nodes))
		}
		if tr.Len() != int64(c.n) {
			t.Fatalf("N=%d: Len = %d", c.n, tr.Len())
		}
		levels := treeLevels(t, tr)
		pages := 1 // the meta page
		for l := range levels {
			// levels runs root first; the table runs leaves first.
			got := levels[len(levels)-1-l]
			pages += len(got)
			if len(got) != c.nodes[l] {
				t.Fatalf("N=%d: level %d has %d nodes, want %d", c.n, l, len(got), c.nodes[l])
			}
			for i, nd := range got {
				want := (MaxEntries + 1) / 2
				if i == len(got)-1 {
					want = c.last[l]
				}
				if nd.count != want {
					t.Fatalf("N=%d: level %d node %d holds %d entries, want %d", c.n, l, i, nd.count, want)
				}
			}
		}
		if int(p.NumPages()) != pages {
			t.Fatalf("N=%d: %d pages, want %d nodes + meta", c.n, p.NumPages(), pages)
		}
	}
}

// levelNode is one node as treeLevels saw it.
type levelNode struct {
	id    pager.PageID
	count int
}

// treeLevels walks tr breadth-first and returns its nodes level by level,
// root first, checking on the way that every inner key is its child's
// first key, that leaves hold the keys 0, 1, … in order and that the
// leaf chain links them left to right.
func treeLevels(t *testing.T, tr *Tree) [][]levelNode {
	t.Helper()
	var levels [][]levelNode
	cur := []pager.PageID{tr.root}
	firsts := []int64{0} // the key each node must start with
	next := int64(0)     // the next leaf key expected
	for len(cur) > 0 {
		var level []levelNode
		var below []pager.PageID
		var belowFirsts []int64
		for i, id := range cur {
			fr, err := tr.p.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			d := fr.Data()
			n := nodeCount(d)
			level = append(level, levelNode{id, n})
			if n > 0 && entryKey(d, 0) != firsts[i] {
				t.Fatalf("page %d starts at key %d, its parent says %d", id, entryKey(d, 0), firsts[i])
			}
			if nodeType(d) == leafType {
				for j := 0; j < n; j++ {
					if entryKey(d, j) != next {
						t.Fatalf("leaf %d slot %d holds key %d, want %d", id, j, entryKey(d, j), next)
					}
					next++
				}
				want := pager.PageID(0)
				if i+1 < len(cur) {
					want = cur[i+1]
				}
				if nextLeaf(d) != want {
					t.Fatalf("leaf %d links to %d, want %d", id, nextLeaf(d), want)
				}
			} else {
				for j := 0; j < n; j++ {
					below = append(below, pager.PageID(entryVal(d, j)))
					belowFirsts = append(belowFirsts, entryKey(d, j))
				}
			}
			fr.Unpin()
		}
		levels = append(levels, level)
		cur, firsts = below, belowFirsts
	}
	if next != tr.Len() {
		t.Fatalf("leaves hold %d keys, Len says %d", next, tr.Len())
	}
	return levels
}
