// Package rtree implements a disk-resident 3D R*-tree (Beckmann, Kriegel,
// Schneider, Seeger; SIGMOD 1990) over (x, y, e) boxes — the index the
// paper builds Direct Mesh on ("we use R*-tree in this paper"). It supports
// dynamic insertion with forced reinsert and the R* split, Sort-Tile-
// Recursive bulk loading, range queries, and node-geometry enumeration for
// the disk-access cost model of Section 5.3.
package rtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"dmesh/internal/geom"
	"dmesh/internal/storage/pager"
)

const (
	magic    = 0x52545245 // "RTRE"
	metaPage = pager.PageID(0)
)

// ErrCorrupt is the sentinel wrapped by every structural-inconsistency
// error: a page that is not a valid node, an impossible entry count, a
// parent/child mismatch, or a traversal deeper than the tree's height
// (a child-pointer cycle). A corrupted index page — which checksummed
// backends turn into a read error but plain backends deliver verbatim —
// surfaces as an error wrapping ErrCorrupt on query paths, never a
// panic or an endless descent.
var ErrCorrupt = errors.New("rtree: corrupt structure")

// Tree is a paged 3D R*-tree. All node accesses go through the pager, so
// the pager's Stats.Reads is the number of index disk accesses.
type Tree struct {
	p      *pager.Pager
	root   pager.PageID
	height int // 1 = root is a leaf
	count  int64
}

// Create initializes an empty tree on an empty pager.
func Create(p *pager.Pager) (*Tree, error) {
	if p.NumPages() != 0 {
		return nil, errors.New("rtree: Create requires an empty pager")
	}
	meta, err := p.Allocate()
	if err != nil {
		return nil, err
	}
	defer meta.Unpin()
	t := &Tree{p: p, height: 1}
	root := &node{leaf: true}
	if err := t.allocNode(root); err != nil {
		return nil, err
	}
	t.root = root.id
	t.writeMeta(meta.Data())
	meta.MarkDirty()
	return t, nil
}

// Open attaches to an existing tree.
func Open(p *pager.Pager) (*Tree, error) {
	meta, err := p.Get(metaPage)
	if err != nil {
		return nil, fmt.Errorf("rtree: open: %w", err)
	}
	defer meta.Unpin()
	d := meta.Data()
	if binary.LittleEndian.Uint32(d[0:]) != magic {
		return nil, errors.New("rtree: bad magic")
	}
	return &Tree{
		p:      p,
		root:   pager.PageID(binary.LittleEndian.Uint32(d[4:])),
		height: int(binary.LittleEndian.Uint32(d[8:])),
		count:  int64(binary.LittleEndian.Uint64(d[12:])),
	}, nil
}

func (t *Tree) writeMeta(d []byte) {
	binary.LittleEndian.PutUint32(d[0:], magic)
	binary.LittleEndian.PutUint32(d[4:], uint32(t.root))
	binary.LittleEndian.PutUint32(d[8:], uint32(t.height))
	binary.LittleEndian.PutUint64(d[12:], uint64(t.count))
}

func (t *Tree) syncMeta() error {
	meta, err := t.p.Get(metaPage)
	if err != nil {
		return err
	}
	t.writeMeta(meta.Data())
	meta.MarkDirty()
	meta.Unpin()
	return nil
}

// On returns a read-only copy of the tree that reads through p, a view of
// the tree's own pager (Pager.WithSession), so that its page accesses are
// also attributed to the view's session. Do not Insert/Delete through it.
func (t *Tree) On(p *pager.Pager) Tree {
	cp := *t
	cp.p = p
	return cp
}

// Len returns the number of stored data entries.
func (t *Tree) Len() int64 { return t.count }

// Height returns the number of levels (1 = single leaf).
func (t *Tree) Height() int { return t.height }

// Search calls fn for every data entry whose box intersects query,
// stopping early if fn returns false. The traversal order is the on-disk
// entry order (deterministic).
func (t *Tree) Search(query geom.Box, fn func(ref int64, box geom.Box) bool) error {
	return t.SearchBoxes([]geom.Box{query}, func(_ int, ref int64, box geom.Box) bool { return fn(ref, box) })
}

// SearchBoxes answers every box of queries in one descent: fn is called
// with (q, ref, box) for every data entry whose box intersects queries[q],
// stopping early if fn returns false. For any one q the entries arrive in
// Search(queries[q])'s order; the boxes interleave in the tree's depth-first
// order. A node any of the boxes reaches is read once, however many reach
// it — a cube plan's strips share their root-to-leaf paths.
func (t *Tree) SearchBoxes(queries []geom.Box, fn func(q int, ref int64, box geom.Box) bool) error {
	if len(queries) == 0 {
		return nil
	}
	s := searcher{queries: queries, fn: fn, reach: make([]int32, len(queries), 2*len(queries))}
	hull := queries[0]
	for q, b := range queries {
		s.reach[q] = int32(q)
		hull = hull.Union(b)
	}
	_, err := t.search(&s, t.root, t.height, 0, len(queries), hull)
	return err
}

// searcher is the state of one search: the query boxes, and two scratch
// stacks that grow on the way down and are truncated on the way back up.
// stack holds, for each node on the current root-to-leaf path, the entries
// of that node still to be visited; reach holds, for each of those nodes,
// the sub-list of queries (by index, ascending) that reach it.
type searcher struct {
	queries []geom.Box
	fn      func(int, int64, geom.Box) bool
	stack   []entry
	reach   []int32
}

// search descends below id, which the queries reach[lo:hi] reach; hull is
// their bounding box (the query itself when there is one). depth is the
// number of levels that may remain (the guard that turns a corrupted
// child-pointer cycle into an ErrCorrupt instead of unbounded recursion).
// A node is never materialized: its page is pinned, the entries that
// intersect the hull are copied off it onto the stack, and it is unpinned
// before any of them is followed — one page access per node and at most
// one index page pinned at a time, exactly the page traffic of reading the
// node whole. Only then is an entry tested against the queries one by one:
// a leaf entry is reported to each it intersects, a child is entered with
// the sub-list of those that do (and not at all when none does, so the
// hull admits no page a per-box search would not read).
func (t *Tree) search(s *searcher, id pager.PageID, depth, lo, hi int, hull geom.Box) (bool, error) {
	if depth < 1 {
		return false, fmt.Errorf("%w: traversal exceeds height %d at node %d", ErrCorrupt, t.height, id)
	}
	fr, err := t.p.Get(id)
	if err != nil {
		return false, fmt.Errorf("rtree: read node %d: %w", id, err)
	}
	d := fr.Data()
	leaf, cnt, err := pageHeader(id, d)
	if err != nil {
		fr.Unpin()
		return false, err
	}
	base := len(s.stack)
	for i := 0; i < cnt; i++ {
		if e := d[nodeHeader+i*entryBytes:]; boxIntersectsAt(e, &hull) {
			s.stack = append(s.stack, decodeEntry(e))
		}
	}
	fr.Unpin()
	one := hi-lo == 1 // the hull is the query: passing it was the test
	for i, end := base, len(s.stack); i < end; i++ {
		e := s.stack[i] // copied: a child's appends may move the stack
		switch {
		case leaf:
			for j := lo; j < hi; j++ {
				if q := int(s.reach[j]); one || e.box.Intersects(s.queries[q]) {
					if !s.fn(q, e.ref, e.box) {
						return false, nil
					}
				}
			}
		case one:
			cont, err := t.search(s, pager.PageID(e.ref), depth-1, lo, hi, hull)
			if err != nil || !cont {
				return cont, err
			}
		default:
			var sub geom.Box
			for j := lo; j < hi; j++ {
				q := s.reach[j] // by index: the append below may move reach
				if b := s.queries[q]; e.box.Intersects(b) {
					if len(s.reach) == hi {
						sub = b
					} else {
						sub = sub.Union(b)
					}
					s.reach = append(s.reach, q)
				}
			}
			if len(s.reach) > hi {
				cont, err := t.search(s, pager.PageID(e.ref), depth-1, hi, len(s.reach), sub)
				if err != nil || !cont {
					return cont, err
				}
				s.reach = s.reach[:hi]
			}
		}
	}
	s.stack = s.stack[:base]
	return true, nil
}

// Insert adds a data entry with the given box and reference.
func (t *Tree) Insert(box geom.Box, ref int64) error {
	if !box.Valid() {
		return fmt.Errorf("rtree: invalid box %v", box)
	}
	// reinserted tracks the levels that already did a forced reinsert
	// during this insertion (R* does it at most once per level).
	reinserted := make(map[int]bool)
	if err := t.insert(entry{box: box, ref: ref}, 1, reinserted); err != nil {
		return err
	}
	t.count++
	return t.syncMeta()
}

// insert places e at the given target level (1 = leaf). Levels count from
// the leaves up, so data entries go to level 1 and a subtree of height h
// reinserts at level h+1... The root is at level t.height.
func (t *Tree) insert(e entry, level int, reinserted map[int]bool) error {
	path, err := t.choosePath(e.box, level)
	if err != nil {
		return err
	}
	n := path[len(path)-1]
	n.entries = append(n.entries, e)
	return t.handleOverflow(path, reinserted)
}

// choosePath descends from the root to the node at the target level using
// the R* ChooseSubtree criteria, returning the node chain.
func (t *Tree) choosePath(box geom.Box, targetLevel int) ([]*node, error) {
	var path []*node
	id := t.root
	for level := t.height; ; level-- {
		n, err := t.readNode(id)
		if err != nil {
			return nil, err
		}
		path = append(path, n)
		if level == targetLevel || n.leaf {
			return path, nil
		}
		if level <= 1 {
			// An inner node where a leaf belongs: descending further would
			// never terminate.
			return nil, fmt.Errorf("%w: inner node %d at leaf level", ErrCorrupt, n.id)
		}
		childLeaf := level-1 == 1
		id = pager.PageID(n.entries[t.chooseSubtree(n, box, childLeaf)].ref)
	}
}

// chooseSubtree picks the entry of n to descend into for box. When the
// children are leaves, R* minimizes overlap enlargement; otherwise volume
// enlargement. Ties break by volume enlargement, then volume, then entry
// order (deterministic).
func (t *Tree) chooseSubtree(n *node, box geom.Box, childrenAreLeaves bool) int {
	best := 0
	bestOverlap := 0.0
	bestEnlarge := 0.0
	bestVol := 0.0
	for i, e := range n.entries {
		enlarged := e.box.Union(box)
		enlarge := enlarged.Volume() - e.box.Volume()
		vol := e.box.Volume()
		overlap := 0.0
		if childrenAreLeaves {
			// Overlap enlargement of entry i against its siblings.
			for j, s := range n.entries {
				if j == i {
					continue
				}
				overlap += enlarged.OverlapVolume(s.box) - e.box.OverlapVolume(s.box)
			}
		}
		better := false
		if i == 0 {
			better = true
		} else if childrenAreLeaves && overlap != bestOverlap {
			better = overlap < bestOverlap
		} else if enlarge != bestEnlarge {
			better = enlarge < bestEnlarge
		} else if vol != bestVol {
			better = vol < bestVol
		}
		if better {
			best, bestOverlap, bestEnlarge, bestVol = i, overlap, enlarge, vol
		}
	}
	return best
}

// handleOverflow writes back the modified tail node of path, splitting or
// force-reinserting as needed, and propagates MBR updates and splits
// upward.
func (t *Tree) handleOverflow(path []*node, reinserted map[int]bool) error {
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		level := t.height - i
		if len(n.entries) <= MaxEntries {
			if err := t.writeNode(n); err != nil {
				return err
			}
			if err := t.adjustParentBox(path, i); err != nil {
				return err
			}
			continue
		}
		isRoot := i == 0
		if !isRoot && !reinserted[level] {
			reinserted[level] = true
			removed, err := t.forceReinsertPrep(n)
			if err != nil {
				return err
			}
			if err := t.adjustParentBox(path, i); err != nil {
				return err
			}
			// Write back ancestors before reinserting through them.
			for j := i - 1; j >= 0; j-- {
				if err := t.writeNode(path[j]); err != nil {
					return err
				}
				if err := t.adjustParentBox(path, j); err != nil {
					return err
				}
			}
			for _, e := range removed {
				if err := t.insert(e, level, reinserted); err != nil {
					return err
				}
			}
			return nil
		}
		// Split.
		left, right := t.split(n)
		if err := t.writeNode(left); err != nil {
			return err
		}
		if err := t.allocNode(right); err != nil {
			return err
		}
		if isRoot {
			newRoot := &node{leaf: false, entries: []entry{
				{box: left.mbr(), ref: int64(left.id)},
				{box: right.mbr(), ref: int64(right.id)},
			}}
			if err := t.allocNode(newRoot); err != nil {
				return err
			}
			t.root = newRoot.id
			t.height++
			return t.syncMeta()
		}
		parent := path[i-1]
		// Update the parent entry for the (reused) left node and add the
		// right node.
		pi, err := parentEntryIndex(parent, left.id)
		if err != nil {
			return err
		}
		parent.entries[pi].box = left.mbr()
		parent.entries = append(parent.entries, entry{box: right.mbr(), ref: int64(right.id)})
	}
	return t.syncMeta()
}

// parentEntryIndex finds the entry of parent pointing at child id. A
// parent without such an entry is a structural inconsistency a corrupted
// index page can produce; it is reported, not panicked on.
func parentEntryIndex(parent *node, id pager.PageID) (int, error) {
	for i, e := range parent.entries {
		if pager.PageID(e.ref) == id {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w: parent %d has no entry for child %d", ErrCorrupt, parent.id, id)
}

// adjustParentBox refreshes the MBR of path[i] inside its parent entry
// (in memory; the parent is written back later in the loop).
func (t *Tree) adjustParentBox(path []*node, i int) error {
	if i == 0 {
		return nil
	}
	parent := path[i-1]
	pi, err := parentEntryIndex(parent, path[i].id)
	if err != nil {
		return err
	}
	parent.entries[pi].box = path[i].mbr()
	return nil
}

// forceReinsertPrep removes the reinsertCount entries of n farthest from
// its MBR center (R* forced reinsert), writes n back, and returns the
// removed entries sorted closest-first for reinsertion.
func (t *Tree) forceReinsertPrep(n *node) ([]entry, error) {
	c := n.mbr().Center()
	type de struct {
		e entry
		d float64
	}
	ds := make([]de, len(n.entries))
	for i, e := range n.entries {
		ds[i] = de{e, e.box.Center().Sub(c).Norm()}
	}
	sort.SliceStable(ds, func(i, j int) bool { return ds[i].d > ds[j].d }) // farthest first
	removed := make([]entry, reinsertCount)
	for i := 0; i < reinsertCount; i++ {
		removed[i] = ds[i].e
	}
	keep := make([]entry, 0, len(ds)-reinsertCount)
	for _, x := range ds[reinsertCount:] {
		keep = append(keep, x.e)
	}
	n.entries = keep
	if err := t.writeNode(n); err != nil {
		return nil, err
	}
	// Reinsert closest-first ("close reinsert" of Beckmann et al.).
	for i, j := 0, len(removed)-1; i < j; i, j = i+1, j-1 {
		removed[i], removed[j] = removed[j], removed[i]
	}
	return removed, nil
}

// split applies the R* topological split: choose the axis with minimum
// total margin over all distributions, then the distribution on that axis
// with minimum overlap (ties: minimum total volume). The left node reuses
// n's page; the right node is new (caller allocates).
func (t *Tree) split(n *node) (left, right *node) {
	entries := n.entries
	m := MinEntries
	if m < 1 {
		m = 1
	}
	type axisSort struct {
		byLower func(i, j int) bool
		byUpper func(i, j int) bool
	}
	lower := []func(e entry) float64{
		func(e entry) float64 { return e.box.MinX },
		func(e entry) float64 { return e.box.MinY },
		func(e entry) float64 { return e.box.MinE },
	}
	upper := []func(e entry) float64{
		func(e entry) float64 { return e.box.MaxX },
		func(e entry) float64 { return e.box.MaxY },
		func(e entry) float64 { return e.box.MaxE },
	}

	bestMargin := -1.0
	var bestSorted []entry
	for axis := 0; axis < 3; axis++ {
		for pass := 0; pass < 2; pass++ {
			s := append([]entry(nil), entries...)
			key := lower[axis]
			tie := upper[axis]
			if pass == 1 {
				key, tie = upper[axis], lower[axis]
			}
			sort.SliceStable(s, func(i, j int) bool {
				if key(s[i]) != key(s[j]) {
					return key(s[i]) < key(s[j])
				}
				return tie(s[i]) < tie(s[j])
			})
			margin := 0.0
			for k := m; k <= len(s)-m; k++ {
				margin += mbrOf(s[:k]).Margin() + mbrOf(s[k:]).Margin()
			}
			if bestMargin < 0 || margin < bestMargin {
				bestMargin, bestSorted = margin, s
			}
		}
	}

	// Choose the distribution with minimum overlap, then minimum volume.
	s := bestSorted
	bestK := m
	bestOverlap, bestVol := 0.0, 0.0
	for k := m; k <= len(s)-m; k++ {
		lb, rb := mbrOf(s[:k]), mbrOf(s[k:])
		ov := lb.OverlapVolume(rb)
		vol := lb.Volume() + rb.Volume()
		if k == m || ov < bestOverlap || (ov == bestOverlap && vol < bestVol) {
			bestK, bestOverlap, bestVol = k, ov, vol
		}
	}
	left = &node{id: n.id, leaf: n.leaf, entries: append([]entry(nil), s[:bestK]...)}
	right = &node{leaf: n.leaf, entries: append([]entry(nil), s[bestK:]...)}
	return left, right
}

func mbrOf(es []entry) geom.Box {
	b := es[0].box
	for _, e := range es[1:] {
		b = b.Union(e.box)
	}
	return b
}

// NodeInfo describes one tree node for the cost model and for diagnostics.
type NodeInfo struct {
	Level   int // 1 = leaf
	Box     geom.Box
	Entries int
}

// Nodes calls fn for every node in the tree (root first, depth-first).
// The cost model of Section 5.3 needs every node's extents (w_i, h_i, d_i
// in formula (1)).
func (t *Tree) Nodes(fn func(NodeInfo) bool) error {
	_, err := t.nodes(t.root, t.height, fn)
	return err
}

func (t *Tree) nodes(id pager.PageID, level int, fn func(NodeInfo) bool) (bool, error) {
	if level < 1 {
		return false, fmt.Errorf("%w: traversal exceeds height %d at node %d", ErrCorrupt, t.height, id)
	}
	n, err := t.readNode(id)
	if err != nil {
		return false, err
	}
	if !fn(NodeInfo{Level: level, Box: n.mbr(), Entries: len(n.entries)}) {
		return false, nil
	}
	if !n.leaf {
		for _, e := range n.entries {
			cont, err := t.nodes(pager.PageID(e.ref), level-1, fn)
			if err != nil || !cont {
				return cont, err
			}
		}
	}
	return true, nil
}

// NumNodes counts the tree's nodes (requires a full traversal).
func (t *Tree) NumNodes() (int, error) {
	n := 0
	err := t.Nodes(func(NodeInfo) bool { n++; return true })
	return n, err
}

// checkInvariants verifies structural invariants below id; used by tests.
func (t *Tree) checkInvariants(id pager.PageID, level int, within *geom.Box) (int64, error) {
	n, err := t.readNode(id)
	if err != nil {
		return 0, err
	}
	if n.leaf != (level == 1) {
		return 0, fmt.Errorf("rtree: node %d leaf=%v at level %d", id, n.leaf, level)
	}
	if id != t.root && len(n.entries) < 1 {
		return 0, fmt.Errorf("rtree: node %d is empty", id)
	}
	if len(n.entries) > MaxEntries {
		return 0, fmt.Errorf("rtree: node %d overfull (%d)", id, len(n.entries))
	}
	var data int64
	for _, e := range n.entries {
		if within != nil && !within.Contains(e.box) {
			return 0, fmt.Errorf("rtree: node %d entry box %v outside parent MBR %v", id, e.box, *within)
		}
		if n.leaf {
			data++
		} else {
			box := e.box
			sub, err := t.checkInvariants(pager.PageID(e.ref), level-1, &box)
			if err != nil {
				return 0, err
			}
			data += sub
		}
	}
	return data, nil
}

// CheckInvariants validates the whole tree: level/leaf consistency, MBR
// containment, fill bounds, and that the entry count matches Len.
func (t *Tree) CheckInvariants() error {
	data, err := t.checkInvariants(t.root, t.height, nil)
	if err != nil {
		return err
	}
	if data != t.count {
		return fmt.Errorf("rtree: %d data entries found, count says %d", data, t.count)
	}
	return nil
}
