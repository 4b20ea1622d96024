package rtree

import (
	"encoding/binary"
	"fmt"
	"math"

	"dmesh/internal/geom"
	"dmesh/internal/storage/pager"
)

// On-page node layout:
//
//	byte 0:    node type (leaf/inner)
//	bytes 1-2: entry count (uint16)
//	bytes 3-7: reserved
//	entries:   6 float64 box bounds + int64 ref = 56 bytes each
//
// A page has room for (4096-8)/56 = 73 entries; a node holds at most
// MaxEntries of them, in line with the node sizes R*-tree papers assume for
// 4 KiB pages.
const (
	nodeHeader = 8
	entryBytes = 56
	leafType   = 1
	innerType  = 2

	// MaxEntries is the fanout BulkLoad packs to, one below what a page
	// holds. No node uses the last slot; the fanout stays 72 because every
	// pinned figure's disk-access count was measured at it.
	MaxEntries = (pager.PageSize-nodeHeader)/entryBytes - 1
)

// entry is one slot of a node: a box plus either a child page ID (inner
// nodes) or a caller-supplied data reference (leaf nodes).
type entry struct {
	box geom.Box
	ref int64
}

// node is the in-memory form of one R*-tree page.
type node struct {
	id      pager.PageID
	leaf    bool
	entries []entry
}

func (n *node) mbr() geom.Box {
	b := n.entries[0].box
	for _, e := range n.entries[1:] {
		b = b.Union(e.box)
	}
	return b
}

// pageHeader validates a node page's header and returns its kind and
// entry count: the one check every reader of a node page shares.
func pageHeader(id pager.PageID, d []byte) (leaf bool, cnt int, err error) {
	typ := d[0]
	if typ != leafType && typ != innerType {
		return false, 0, fmt.Errorf("%w: page %d is not a node (type %d)", ErrCorrupt, id, typ)
	}
	cnt = int(binary.LittleEndian.Uint16(d[1:]))
	if cnt > MaxEntries {
		return false, 0, fmt.Errorf("%w: page %d has impossible entry count %d", ErrCorrupt, id, cnt)
	}
	return typ == leafType, cnt, nil
}

// readNode loads a node page. Every call is a (possibly buffered) page
// access, which is exactly how index I/O is charged in the paper.
func (t *Tree) readNode(id pager.PageID) (*node, error) {
	fr, err := t.p.Get(id)
	if err != nil {
		return nil, fmt.Errorf("rtree: read node %d: %w", id, err)
	}
	defer fr.Unpin()
	d := fr.Data()
	leaf, cnt, err := pageHeader(id, d)
	if err != nil {
		return nil, err
	}
	n := &node{id: id, leaf: leaf, entries: make([]entry, cnt)}
	off := nodeHeader
	for i := 0; i < cnt; i++ {
		n.entries[i] = decodeEntry(d[off:])
		off += entryBytes
	}
	return n, nil
}

// allocNode allocates a fresh page for n, assigns its ID and counts it.
func (t *Tree) allocNode(n *node) error {
	fr, err := t.p.Allocate()
	if err != nil {
		return fmt.Errorf("rtree: alloc node: %w", err)
	}
	defer fr.Unpin()
	n.id = fr.ID()
	t.nodes++
	t.encodeNode(fr.Data(), n)
	return nil
}

func (t *Tree) encodeNode(d []byte, n *node) {
	typ := byte(innerType)
	if n.leaf {
		typ = leafType
	}
	d[0] = typ
	binary.LittleEndian.PutUint16(d[1:], uint16(len(n.entries)))
	off := nodeHeader
	for _, e := range n.entries {
		encodeEntry(d[off:], e)
		off += entryBytes
	}
}

func encodeEntry(d []byte, e entry) {
	binary.LittleEndian.PutUint64(d[0:], math.Float64bits(e.box.MinX))
	binary.LittleEndian.PutUint64(d[8:], math.Float64bits(e.box.MinY))
	binary.LittleEndian.PutUint64(d[16:], math.Float64bits(e.box.MinE))
	binary.LittleEndian.PutUint64(d[24:], math.Float64bits(e.box.MaxX))
	binary.LittleEndian.PutUint64(d[32:], math.Float64bits(e.box.MaxY))
	binary.LittleEndian.PutUint64(d[40:], math.Float64bits(e.box.MaxE))
	binary.LittleEndian.PutUint64(d[48:], uint64(e.ref))
}

func decodeEntry(d []byte) entry {
	return entry{
		box: geom.Box{
			MinX: math.Float64frombits(binary.LittleEndian.Uint64(d[0:])),
			MinY: math.Float64frombits(binary.LittleEndian.Uint64(d[8:])),
			MinE: math.Float64frombits(binary.LittleEndian.Uint64(d[16:])),
			MaxX: math.Float64frombits(binary.LittleEndian.Uint64(d[24:])),
			MaxY: math.Float64frombits(binary.LittleEndian.Uint64(d[32:])),
			MaxE: math.Float64frombits(binary.LittleEndian.Uint64(d[40:])),
		},
		ref: int64(binary.LittleEndian.Uint64(d[48:])),
	}
}

// boxIntersectsAt is decodeEntry(d).box.Intersects(*q) without the
// decode: bounds are read off the page only until one rules the entry out.
func boxIntersectsAt(d []byte, q *geom.Box) bool {
	f := func(off int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(d[off:])) }
	return f(0) <= q.MaxX && q.MinX <= f(24) &&
		f(8) <= q.MaxY && q.MinY <= f(32) &&
		f(16) <= q.MaxE && q.MinE <= f(40)
}
