// Package quadtree implements the LOD-quadtree of Xu (ADC 2003), the index
// the paper uses for its Progressive Mesh baseline: "a 3D quadtree, in
// which the LOD dimension is added. The LOD-quadtree is an adaptive
// quadtree that can handle the fact that point data are more uniformly
// distributed in the (x, y) space but severely skewed in the LOD
// dimension."
//
// Concretely this is a paged octree over (x, y, e) points built with
// median splits on every axis (the adaptivity that copes with LOD skew).
// Leaf pages store the point payloads themselves — a clustered index, like
// the LOD-R-tree and HDoV-tree store their data at tree nodes — so a range
// query's disk cost is the pages it traverses. Every stored record is also
// addressable by a stable reference for the by-ID ancestor chasing that PM
// query processing needs.
package quadtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"dmesh/internal/geom"
	"dmesh/internal/storage/pager"
)

const (
	magic    = 0x51544145 // "QTAE"
	metaPage = pager.PageID(0)

	leafType  = 1
	innerType = 2

	// Leaf layout: type(1) count(2) reserved(5), then records of
	// 24 bytes of coordinates + payload each.
	leafHeader  = 8
	coordsBytes = 24

	// Inner layout: type(1) reserved(7), 3 split coordinates, 8 child page
	// IDs (0 = empty octant).
	innerHeader = 8
)

// Ref is a stable reference to a stored record: leaf page and slot.
type Ref int64

func makeRef(page pager.PageID, slot int) Ref { return Ref(int64(page)<<16 | int64(slot)) }

func (r Ref) page() pager.PageID { return pager.PageID(r >> 16) }
func (r Ref) slot() int          { return int(r & 0xFFFF) }

// Item is one point record to store.
type Item struct {
	X, Y, E float64
	Payload []byte
}

// Tree is a read-only paged LOD-quadtree built once with Build.
type Tree struct {
	p       *pager.Pager
	root    pager.PageID
	recSize int // payload size
	count   int64
}

// Build constructs the tree over items on an empty pager. All payloads
// must have length recSize. The build is deterministic. The returned refs
// parallel items: refs[i] addresses items[i].
func Build(p *pager.Pager, recSize int, items []Item) (*Tree, []Ref, error) {
	if p.NumPages() != 0 {
		return nil, nil, errors.New("quadtree: Build requires an empty pager")
	}
	if recSize <= 0 || leafHeader+coordsBytes+recSize > pager.PageSize {
		return nil, nil, fmt.Errorf("quadtree: payload size %d out of range", recSize)
	}
	for i := range items {
		if len(items[i].Payload) != recSize {
			return nil, nil, fmt.Errorf("quadtree: item %d payload size %d, want %d", i, len(items[i].Payload), recSize)
		}
	}
	meta, err := p.Allocate()
	if err != nil {
		return nil, nil, err
	}
	defer meta.Unpin()

	t := &Tree{p: p, recSize: recSize, count: int64(len(items))}
	refs := make([]Ref, len(items))
	idx := make([]int, len(items))
	for i := range idx {
		idx[i] = i
	}
	root, err := t.build(items, idx, refs, 0)
	if err != nil {
		return nil, nil, err
	}
	t.root = root
	t.writeMeta(meta.Data())
	meta.MarkDirty()
	return t, refs, nil
}

func (t *Tree) writeMeta(d []byte) {
	binary.LittleEndian.PutUint32(d[0:], magic)
	binary.LittleEndian.PutUint32(d[4:], uint32(t.root))
	binary.LittleEndian.PutUint32(d[8:], uint32(t.recSize))
	binary.LittleEndian.PutUint64(d[12:], uint64(t.count))
}

// perLeaf returns how many records fit in one leaf page.
func (t *Tree) perLeaf() int {
	return (pager.PageSize - leafHeader) / (coordsBytes + t.recSize)
}

// build recursively partitions idx (indices into items) and returns the
// page of the created subtree. depth guards against pathological inputs
// (many identical coordinates), falling back to chained leaves.
func (t *Tree) build(items []Item, idx []int, refs []Ref, depth int) (pager.PageID, error) {
	if len(idx) <= t.perLeaf() || depth > 40 || allSame(items, idx) {
		return t.writeLeafChain(items, idx, refs)
	}
	// Median splits on each axis: the adaptivity that handles LOD skew.
	xs := sortedCoords(items, idx, func(it *Item) float64 { return it.X })
	ys := sortedCoords(items, idx, func(it *Item) float64 { return it.Y })
	es := sortedCoords(items, idx, func(it *Item) float64 { return it.E })
	sx, sy, se := median(xs), median(ys), median(es)

	var octants [8][]int
	for _, i := range idx {
		o := 0
		if items[i].X >= sx {
			o |= 1
		}
		if items[i].Y >= sy {
			o |= 2
		}
		if items[i].E >= se {
			o |= 4
		}
		octants[o] = append(octants[o], i)
	}
	// A degenerate split (everything in one octant) cannot make progress.
	for o := 0; o < 8; o++ {
		if len(octants[o]) == len(idx) {
			return t.writeLeafChain(items, idx, refs)
		}
	}
	fr, err := t.p.Allocate()
	if err != nil {
		return 0, err
	}
	page := fr.ID()
	d := fr.Data()
	d[0] = innerType
	binary.LittleEndian.PutUint64(d[innerHeader:], math.Float64bits(sx))
	binary.LittleEndian.PutUint64(d[innerHeader+8:], math.Float64bits(sy))
	binary.LittleEndian.PutUint64(d[innerHeader+16:], math.Float64bits(se))
	fr.MarkDirty()
	fr.Unpin() // release during recursion; children update it via Get

	for o := 0; o < 8; o++ {
		if len(octants[o]) == 0 {
			continue
		}
		child, err := t.build(items, octants[o], refs, depth+1)
		if err != nil {
			return 0, err
		}
		fr, err := t.p.Get(page)
		if err != nil {
			return 0, err
		}
		binary.LittleEndian.PutUint32(fr.Data()[innerHeader+24+o*4:], uint32(child))
		fr.MarkDirty()
		fr.Unpin()
	}
	return page, nil
}

func allSame(items []Item, idx []int) bool {
	first := items[idx[0]]
	for _, i := range idx[1:] {
		if items[i].X != first.X || items[i].Y != first.Y || items[i].E != first.E {
			return false
		}
	}
	return true
}

func sortedCoords(items []Item, idx []int, get func(*Item) float64) []float64 {
	out := make([]float64, len(idx))
	for k, i := range idx {
		out[k] = get(&items[i])
	}
	sort.Float64s(out)
	return out
}

func median(sorted []float64) float64 { return sorted[len(sorted)/2] }

// writeLeafChain stores idx's records across one or more chained leaf
// pages (slot 0xFFFF in the header area holds the next page).
func (t *Tree) writeLeafChain(items []Item, idx []int, refs []Ref) (pager.PageID, error) {
	per := t.perLeaf()
	var first, prev pager.PageID
	for start := 0; start < len(idx) || start == 0; start += per {
		end := start + per
		if end > len(idx) {
			end = len(idx)
		}
		fr, err := t.p.Allocate()
		if err != nil {
			return 0, err
		}
		page := fr.ID()
		d := fr.Data()
		d[0] = leafType
		binary.LittleEndian.PutUint16(d[1:], uint16(end-start))
		off := leafHeader
		for slot, k := 0, start; k < end; slot, k = slot+1, k+1 {
			it := items[idx[k]]
			binary.LittleEndian.PutUint64(d[off:], math.Float64bits(it.X))
			binary.LittleEndian.PutUint64(d[off+8:], math.Float64bits(it.Y))
			binary.LittleEndian.PutUint64(d[off+16:], math.Float64bits(it.E))
			copy(d[off+coordsBytes:], it.Payload)
			refs[idx[k]] = makeRef(page, slot)
			off += coordsBytes + t.recSize
		}
		fr.MarkDirty()
		fr.Unpin()
		if first == 0 {
			first = page
		} else {
			// Link from the previous page.
			pfr, err := t.p.Get(prev)
			if err != nil {
				return 0, err
			}
			binary.LittleEndian.PutUint32(pfr.Data()[3:], uint32(page))
			pfr.MarkDirty()
			pfr.Unpin()
		}
		prev = page
		if len(idx) == 0 {
			break
		}
	}
	return first, nil
}

// Query calls fn for every record whose point lies inside box (boundary
// inclusive), stopping early if fn returns false. Payload slices are only
// valid during the callback.
func (t *Tree) Query(box geom.Box, fn func(x, y, e float64, payload []byte) bool) error {
	if t.count == 0 {
		return nil
	}
	_, err := t.query(t.root, box, fn)
	return err
}

func (t *Tree) query(id pager.PageID, box geom.Box, fn func(x, y, e float64, payload []byte) bool) (bool, error) {
	for id != 0 {
		fr, err := t.p.Get(id)
		if err != nil {
			return false, err
		}
		d := fr.Data()
		switch d[0] {
		case leafType:
			cnt := int(binary.LittleEndian.Uint16(d[1:]))
			next := pager.PageID(binary.LittleEndian.Uint32(d[3:]))
			off := leafHeader
			for i := 0; i < cnt; i++ {
				x := math.Float64frombits(binary.LittleEndian.Uint64(d[off:]))
				y := math.Float64frombits(binary.LittleEndian.Uint64(d[off+8:]))
				e := math.Float64frombits(binary.LittleEndian.Uint64(d[off+16:]))
				if box.ContainsPoint(x, y, e) {
					if !fn(x, y, e, d[off+coordsBytes:off+coordsBytes+t.recSize]) {
						fr.Unpin()
						return false, nil
					}
				}
				off += coordsBytes + t.recSize
			}
			fr.Unpin()
			id = next // chained overflow leaf
		case innerType:
			sx := math.Float64frombits(binary.LittleEndian.Uint64(d[innerHeader:]))
			sy := math.Float64frombits(binary.LittleEndian.Uint64(d[innerHeader+8:]))
			se := math.Float64frombits(binary.LittleEndian.Uint64(d[innerHeader+16:]))
			var children [8]pager.PageID
			for o := 0; o < 8; o++ {
				children[o] = pager.PageID(binary.LittleEndian.Uint32(d[innerHeader+24+o*4:]))
			}
			fr.Unpin()
			for o := 0; o < 8; o++ {
				if children[o] == 0 {
					continue
				}
				if !octantIntersects(o, sx, sy, se, box) {
					continue
				}
				cont, err := t.query(children[o], box, fn)
				if err != nil || !cont {
					return cont, err
				}
			}
			return true, nil
		default:
			fr.Unpin()
			return false, fmt.Errorf("quadtree: page %d has bad type %d", id, d[0])
		}
	}
	return true, nil
}

// octantIntersects reports whether octant o (half-open on the low side of
// each split) can contain points inside box.
func octantIntersects(o int, sx, sy, se float64, box geom.Box) bool {
	if o&1 == 0 { // x < sx
		if box.MinX >= sx {
			return false
		}
	} else { // x >= sx
		if box.MaxX < sx {
			return false
		}
	}
	if o&2 == 0 {
		if box.MinY >= sy {
			return false
		}
	} else {
		if box.MaxY < sy {
			return false
		}
	}
	if o&4 == 0 {
		if box.MinE >= se {
			return false
		}
	} else {
		if box.MaxE < se {
			return false
		}
	}
	return true
}

// Fetch reads the record at ref, returning its coordinates and payload
// (copied). The cost is one page access, the same as any point fetch in
// the paper's setup.
func (t *Tree) Fetch(ref Ref) (x, y, e float64, payload []byte, err error) {
	fr, err := t.p.Get(ref.page())
	if err != nil {
		return 0, 0, 0, nil, err
	}
	defer fr.Unpin()
	d := fr.Data()
	if d[0] != leafType {
		return 0, 0, 0, nil, fmt.Errorf("quadtree: ref page %d is not a leaf", ref.page())
	}
	cnt := int(binary.LittleEndian.Uint16(d[1:]))
	if ref.slot() >= cnt {
		return 0, 0, 0, nil, fmt.Errorf("quadtree: ref slot %d out of range (%d)", ref.slot(), cnt)
	}
	off := leafHeader + ref.slot()*(coordsBytes+t.recSize)
	x = math.Float64frombits(binary.LittleEndian.Uint64(d[off:]))
	y = math.Float64frombits(binary.LittleEndian.Uint64(d[off+8:]))
	e = math.Float64frombits(binary.LittleEndian.Uint64(d[off+16:]))
	payload = append([]byte(nil), d[off+coordsBytes:off+coordsBytes+t.recSize]...)
	return x, y, e, payload, nil
}
