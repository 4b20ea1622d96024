// Package rtree implements a disk-resident 3D R*-tree over (x, y, e) boxes,
// the index the paper builds Direct Mesh on ("we use R*-tree in this
// paper"). Every tree indexes a static terrain: BulkLoad writes it once,
// Sort-Tile-Recursive packed, and from then on it is only read — range
// queries, and node-geometry enumeration for the disk-access cost model of
// Section 5.3. The R*-tree's insertion heuristics (Beckmann, Kriegel,
// Schneider, Seeger; SIGMOD 1990: ChooseSubtree, forced reinsert and the
// topological split) shape only trees built by insertion, so the package
// has none.
package rtree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dmesh/internal/geom"
	"dmesh/internal/storage/pager"
)

const (
	magic    = 0x52545245 // "RTRE"
	metaPage = pager.PageID(0)
)

// ErrCorrupt is the sentinel wrapped by every structural-inconsistency
// error: a page that is not a valid node, an impossible entry count, or a
// traversal deeper than the tree's height (a child-pointer cycle). A
// corrupted index page — which checksummed backends turn into a read error
// but plain backends deliver verbatim — surfaces as an error wrapping
// ErrCorrupt on query paths, never a panic or an endless descent.
var ErrCorrupt = errors.New("rtree: corrupt structure")

// Tree is a paged, read-only 3D R*-tree. All node accesses go through the
// pager, so the pager's Stats.Reads is the number of index disk accesses.
type Tree struct {
	p      *pager.Pager
	root   pager.PageID
	height int // 1 = root is a leaf
	count  int64
}

// Open attaches to an existing tree. Every descent trusts the meta page's
// height as its depth bound, so a root off the file or on the meta page, a
// height of 0 or above the file's node pages, and a height that is not
// the length of the root's leftmost path (read through p) are ErrCorrupt.
func Open(p *pager.Pager) (*Tree, error) {
	meta, err := p.Get(metaPage)
	if err != nil {
		return nil, fmt.Errorf("rtree: open: %w", err)
	}
	d := meta.Data()
	t := &Tree{
		p:      p,
		root:   pager.PageID(binary.LittleEndian.Uint32(d[4:])),
		height: int(binary.LittleEndian.Uint32(d[8:])),
		count:  int64(binary.LittleEndian.Uint64(d[12:])),
	}
	bad := binary.LittleEndian.Uint32(d[0:]) != magic
	meta.Unpin()
	switch pages := p.NumPages(); {
	case bad:
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	case t.root == metaPage || t.root >= pages:
		return nil, fmt.Errorf("%w: root page %d out of range", ErrCorrupt, t.root)
	case t.height < 1 || t.height >= int(pages):
		return nil, fmt.Errorf("%w: height %d in a file of %d pages", ErrCorrupt, t.height, pages)
	}
	for id, level := t.root, t.height; ; level-- {
		n, err := t.readNode(id)
		switch {
		case err != nil:
			return nil, err
		case n.leaf != (level == 1) || len(n.entries) == 0 && !n.leaf:
			return nil, fmt.Errorf("%w: height %d, node %d at level %d is leaf=%v with %d entries",
				ErrCorrupt, t.height, id, level, n.leaf, len(n.entries))
		case n.leaf:
			return t, nil
		}
		id = pager.PageID(n.entries[0].ref)
	}
}

// RootBox returns the bounding box of the tree stored on b: the union of
// its root's entries. It reads the meta page and the root page from b
// itself, below any pager, so no disk access is counted and no buffer
// pool changes — a check made when a store opens. An empty tree has no
// box and is an error, like a bad magic or a root that is not a node;
// each wraps ErrCorrupt.
func RootBox(b pager.Backend) (geom.Box, error) {
	d := make([]byte, pager.PageSize)
	if err := b.ReadPage(metaPage, d); err != nil {
		return geom.Box{}, fmt.Errorf("rtree: read meta: %w", err)
	}
	if binary.LittleEndian.Uint32(d[0:]) != magic {
		return geom.Box{}, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	root := pager.PageID(binary.LittleEndian.Uint32(d[4:]))
	if root == metaPage || root >= b.NumPages() {
		return geom.Box{}, fmt.Errorf("%w: root page %d out of range", ErrCorrupt, root)
	}
	if err := b.ReadPage(root, d); err != nil {
		return geom.Box{}, fmt.Errorf("rtree: read root %d: %w", root, err)
	}
	_, cnt, err := pageHeader(root, d)
	if err != nil {
		return geom.Box{}, err
	}
	if cnt == 0 {
		return geom.Box{}, fmt.Errorf("%w: empty root %d", ErrCorrupt, root)
	}
	n := node{entries: make([]entry, cnt)}
	for i := range n.entries {
		n.entries[i] = decodeEntry(d[nodeHeader+i*entryBytes:])
	}
	return n.mbr(), nil
}

func (t *Tree) writeMeta(d []byte) {
	binary.LittleEndian.PutUint32(d[0:], magic)
	binary.LittleEndian.PutUint32(d[4:], uint32(t.root))
	binary.LittleEndian.PutUint32(d[8:], uint32(t.height))
	binary.LittleEndian.PutUint64(d[12:], uint64(t.count))
}

// On returns a read-only copy of the tree that reads through p, a view of
// the tree's own pager (Pager.WithSession), so that its page accesses are
// also attributed to the view's session.
func (t *Tree) On(p *pager.Pager) Tree {
	cp := *t
	cp.p = p
	return cp
}

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

// NodeInfo describes one tree node for the cost model and for diagnostics.
type NodeInfo struct {
	Level   int // 1 = leaf
	Box     geom.Box
	Entries int
}

// Nodes calls fn for every node in the tree (root first, depth-first).
// The cost model of Section 5.3 needs every node's extents (w_i, h_i, d_i
// in formula (1)). An empty tree (no entries, and a root without any) has
// no node with extents: fn is never called and Nodes returns nil. Any
// other node without entries is ErrCorrupt.
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
	if len(n.entries) == 0 {
		if id == t.root && t.count == 0 {
			return true, nil
		}
		return false, fmt.Errorf("%w: node %d is empty", ErrCorrupt, id)
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
