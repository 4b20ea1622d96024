package rtree

import (
	"cmp"
	"errors"
	"math"
	"slices"

	"dmesh/internal/geom"
	"dmesh/internal/storage/pager"
)

// Item is one data entry for bulk loading.
type Item struct {
	Box geom.Box
	Ref int64
}

// BulkLoad builds a tree from items on an empty pager using the Sort-Tile-
// Recursive (STR) packing algorithm extended to three dimensions: sort by
// x into slabs, each slab by y into runs, each run by e, then pack nodes
// sequentially. Upper levels re-apply the same packing to the node MBRs.
// Packed trees have near-full nodes and minimal overlap, the configuration
// the paper's (and our) cost model assumes.
func BulkLoad(p *pager.Pager, items []Item) (*Tree, error) {
	if p.NumPages() != 0 {
		return nil, errors.New("rtree: BulkLoad requires an empty pager")
	}
	meta, err := p.Allocate()
	if err != nil {
		return nil, err
	}
	defer meta.Unpin()

	t := &Tree{p: p, height: 1, count: int64(len(items))}

	if len(items) == 0 {
		root := &node{leaf: true}
		if err := t.allocNode(root); err != nil {
			return nil, err
		}
		t.root = root.id
		t.writeMeta(meta.Data())
		meta.MarkDirty()
		return t, nil
	}

	entries := make([]entry, len(items))
	for i, it := range items {
		if !it.Box.Valid() {
			return nil, errors.New("rtree: BulkLoad: invalid box")
		}
		entries[i] = entry{box: it.Box, ref: it.Ref}
	}

	leaf := true
	for {
		parents, err := t.packLevel(entries, leaf)
		if err != nil {
			return nil, err
		}
		if len(parents) == 1 {
			t.root = pager.PageID(parents[0].ref)
			break
		}
		entries = parents
		leaf = false
		t.height++
	}
	t.writeMeta(meta.Data())
	meta.MarkDirty()
	return t, nil
}

// packLevel groups entries into nodes of up to MaxEntries using STR order
// and returns one parent entry per created node.
func (t *Tree) packLevel(entries []entry, leaf bool) ([]entry, error) {
	var parents []entry
	for _, group := range strGroups(entries) {
		nd := &node{leaf: leaf, entries: append([]entry(nil), group...)}
		if err := t.allocNode(nd); err != nil {
			return nil, err
		}
		parents = append(parents, entry{box: nd.mbr(), ref: int64(nd.id)})
	}
	return parents, nil
}

// strGroups partitions entries into node-sized groups in Sort-Tile-
// Recursive order: sorted into x slabs, then y runs, then by e. The input
// slice is reordered in place; the returned groups are subslices of it.
func strGroups(entries []entry) [][]entry {
	n := len(entries)
	nodes := (n + MaxEntries - 1) / MaxEntries
	if nodes <= 1 {
		return [][]entry{entries}
	}
	s := int(math.Ceil(math.Cbrt(float64(nodes))))
	sortByCenter(entries, 0)
	slabSize := ceilDiv(n, s)
	var groups [][]entry
	for i := 0; i < n; i += slabSize {
		slab := entries[i:min(i+slabSize, n)]
		sortByCenter(slab, 1)
		runSize := ceilDiv(len(slab), s)
		for j := 0; j < len(slab); j += runSize {
			run := slab[j:min(j+runSize, len(slab))]
			sortByCenter(run, 2)
			for k := 0; k < len(run); k += MaxEntries {
				groups = append(groups, run[k:min(k+MaxEntries, len(run))])
			}
		}
	}
	return groups
}

// STRLeafOrder returns items reordered the way BulkLoad would pack them
// into leaves. Laying data records out in this order clusters the table on
// the index (records of one leaf are contiguous), the standard physical
// design for index-clustered tables.
func STRLeafOrder(items []Item) []Item {
	entries := make([]entry, len(items))
	for i, it := range items {
		entries[i] = entry{box: it.Box, ref: it.Ref}
	}
	out := make([]Item, 0, len(items))
	for _, group := range strGroups(entries) {
		for _, e := range group {
			out = append(out, Item{Box: e.box, Ref: e.ref})
		}
	}
	return out
}

// sortByCenter sorts entries by box center on the given axis (0=x, 1=y,
// 2=e), with full-center tie-breaks for determinism (refs are unique, so
// the order is total).
func sortByCenter(es []entry, axis int) {
	center := func(e *entry, a int) float64 {
		switch a {
		case 0:
			return e.box.MinX + e.box.MaxX
		case 1:
			return e.box.MinY + e.box.MaxY
		default:
			return e.box.MinE + e.box.MaxE
		}
	}
	slices.SortStableFunc(es, func(x, y entry) int {
		for d := 0; d < 3; d++ {
			a := (axis + d) % 3
			if cx, cy := center(&x, a), center(&y, a); cx != cy {
				if cx < cy {
					return -1
				}
				return 1
			}
		}
		return cmp.Compare(x.ref, y.ref)
	})
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
