// Package btree implements a paged B+-tree mapping int64 keys to int64
// values. The paper creates "B+-tree indexes ... wherever necessary for all
// the tables used"; here they map point IDs to the heap-file records that
// hold them, so that a by-ID fetch costs the same page accesses it would in
// the paper's Oracle setup.
//
// Keys are only ever added or overwritten: a store's index is built once
// and then read, so the tree has no deletion.
package btree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dmesh/internal/storage/pager"
)

const (
	magic    = 0x42545245 // "BTRE"
	metaPage = pager.PageID(0)

	// Node layout:
	//   byte 0:    node type (leafType/innerType)
	//   bytes 1-2: key count (uint16)
	//   bytes 3-6: leaf only: next-leaf page ID (uint32, 0 = none)
	//   byte 7:    reserved
	// then entries.
	nodeHeader = 8
	leafType   = 1
	innerType  = 2

	entrySize = 16 // key + value (leaf) or key + child (inner, child in value slot)

	// MaxEntries is the per-node fanout. One slot below physical capacity
	// is reserved so a node can temporarily hold MaxEntries+1 entries
	// between insertAt and the split: (4096-8)/16 - 1 = 254.
	MaxEntries = (pager.PageSize-nodeHeader)/entrySize - 1
)

// ErrNotFound is returned by Get when the key is absent.
var ErrNotFound = errors.New("btree: key not found")

// ErrCorrupt is the sentinel wrapped by every structural-inconsistency
// error: a page whose type byte is neither leaf nor inner, an impossible
// entry count, or a descent/leaf-chain walk longer than any well-formed
// tree allows (a child- or next-leaf-pointer cycle). Corrupted pages
// surface as errors, never panics or endless loops.
var ErrCorrupt = errors.New("btree: corrupt structure")

// maxDepth bounds root-to-leaf descents: with fanout >128, a height
// beyond this is impossible for any key count that fits in int64, so a
// longer descent proves a child-pointer cycle.
const maxDepth = 64

// checkNode validates the invariants any readable node page satisfies.
func checkNode(d []byte, id pager.PageID) error {
	if typ := nodeType(d); typ != leafType && typ != innerType {
		return fmt.Errorf("%w: page %d is not a node (type %d)", ErrCorrupt, id, typ)
	}
	if n := nodeCount(d); n > MaxEntries+1 {
		return fmt.Errorf("%w: page %d has impossible entry count %d", ErrCorrupt, id, n)
	}
	return nil
}

// Tree is a B+-tree over a dedicated pager.
type Tree struct {
	p    *pager.Pager
	root pager.PageID
	size int64
}

// Create initializes a new empty tree on an empty pager.
func Create(p *pager.Pager) (*Tree, error) {
	if p.NumPages() != 0 {
		return nil, errors.New("btree: Create requires an empty pager")
	}
	meta, err := p.Allocate()
	if err != nil {
		return nil, err
	}
	defer meta.Unpin()
	rootFr, err := p.Allocate()
	if err != nil {
		return nil, err
	}
	defer rootFr.Unpin()
	initNode(rootFr.Data(), leafType)
	rootFr.MarkDirty()

	t := &Tree{p: p, root: rootFr.ID()}
	t.writeMeta(meta.Data())
	meta.MarkDirty()
	return t, nil
}

// Open attaches to an existing tree.
func Open(p *pager.Pager) (*Tree, error) {
	meta, err := p.Get(metaPage)
	if err != nil {
		return nil, fmt.Errorf("btree: open: %w", err)
	}
	defer meta.Unpin()
	d := meta.Data()
	if binary.LittleEndian.Uint32(d[0:]) != magic {
		return nil, errors.New("btree: bad magic")
	}
	return &Tree{
		p:    p,
		root: pager.PageID(binary.LittleEndian.Uint32(d[4:])),
		size: int64(binary.LittleEndian.Uint64(d[8:])),
	}, nil
}

func (t *Tree) writeMeta(d []byte) {
	binary.LittleEndian.PutUint32(d[0:], magic)
	binary.LittleEndian.PutUint32(d[4:], uint32(t.root))
	binary.LittleEndian.PutUint64(d[8:], uint64(t.size))
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
// also attributed to the view's session. Do not Put through it.
func (t *Tree) On(p *pager.Pager) Tree {
	cp := *t
	cp.p = p
	return cp
}

// Len returns the number of keys stored.
func (t *Tree) Len() int64 { return t.size }

// --- node accessors -------------------------------------------------------

func initNode(d []byte, typ byte) {
	for i := 0; i < nodeHeader; i++ {
		d[i] = 0
	}
	d[0] = typ
}

func nodeType(d []byte) byte   { return d[0] }
func nodeCount(d []byte) int   { return int(binary.LittleEndian.Uint16(d[1:])) }
func setCount(d []byte, n int) { binary.LittleEndian.PutUint16(d[1:], uint16(n)) }
func nextLeaf(d []byte) pager.PageID {
	return pager.PageID(binary.LittleEndian.Uint32(d[3:]))
}
func setNextLeaf(d []byte, id pager.PageID) { binary.LittleEndian.PutUint32(d[3:], uint32(id)) }

func entryKey(d []byte, i int) int64 {
	return int64(binary.LittleEndian.Uint64(d[nodeHeader+i*entrySize:]))
}
func entryVal(d []byte, i int) int64 {
	return int64(binary.LittleEndian.Uint64(d[nodeHeader+i*entrySize+8:]))
}
func setEntry(d []byte, i int, k, v int64) {
	binary.LittleEndian.PutUint64(d[nodeHeader+i*entrySize:], uint64(k))
	binary.LittleEndian.PutUint64(d[nodeHeader+i*entrySize+8:], uint64(v))
}

// insertAt shifts entries right and writes (k, v) at index i.
func insertAt(d []byte, i, n int, k, v int64) {
	copy(d[nodeHeader+(i+1)*entrySize:nodeHeader+(n+1)*entrySize],
		d[nodeHeader+i*entrySize:nodeHeader+n*entrySize])
	setEntry(d, i, k, v)
	setCount(d, n+1)
}

// lowerBound returns the first index with entryKey >= k.
func lowerBound(d []byte, k int64) int {
	lo, hi := 0, nodeCount(d)
	for lo < hi {
		mid := (lo + hi) / 2
		if entryKey(d, mid) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childFor returns the index of the child covering key k in an inner node.
// Inner node semantics: entry i covers keys >= key(i) (and entry 0 covers
// everything below key(1)); keys are the minimum keys of each subtree.
func childFor(d []byte, k int64) int {
	idx := lowerBound(d, k)
	if idx == nodeCount(d) || entryKey(d, idx) > k {
		if idx > 0 {
			idx--
		}
	}
	return idx
}

// --- operations ------------------------------------------------------------

// Get returns the value stored for key, or ErrNotFound.
func (t *Tree) Get(key int64) (int64, error) {
	id := t.root
	for depth := 0; ; depth++ {
		if depth >= maxDepth {
			return 0, fmt.Errorf("%w: descent exceeds %d levels at page %d", ErrCorrupt, maxDepth, id)
		}
		fr, err := t.p.Get(id)
		if err != nil {
			return 0, err
		}
		d := fr.Data()
		if err := checkNode(d, id); err != nil {
			fr.Unpin()
			return 0, err
		}
		if nodeType(d) == leafType {
			i := lowerBound(d, key)
			if i < nodeCount(d) && entryKey(d, i) == key {
				v := entryVal(d, i)
				fr.Unpin()
				return v, nil
			}
			fr.Unpin()
			return 0, ErrNotFound
		}
		if nodeCount(d) == 0 {
			fr.Unpin()
			return 0, fmt.Errorf("%w: inner page %d has no children", ErrCorrupt, id)
		}
		id = pager.PageID(entryVal(d, childFor(d, key)))
		fr.Unpin()
	}
}

// Put inserts or overwrites key -> value.
func (t *Tree) Put(key, value int64) error {
	promoted, newChild, err := t.put(t.root, key, value, maxDepth)
	if err != nil {
		return err
	}
	if newChild != 0 {
		// Root split: build a new root over the two children.
		oldRootMin, err := t.minKey(t.root)
		if err != nil {
			return err
		}
		fr, err := t.p.Allocate()
		if err != nil {
			return err
		}
		d := fr.Data()
		initNode(d, innerType)
		setEntry(d, 0, oldRootMin, int64(t.root))
		setEntry(d, 1, promoted, int64(newChild))
		setCount(d, 2)
		fr.MarkDirty()
		t.root = fr.ID()
		fr.Unpin()
	}
	return t.syncMeta()
}

// minKey returns the smallest key under node id.
func (t *Tree) minKey(id pager.PageID) (int64, error) {
	for depth := 0; ; depth++ {
		if depth >= maxDepth {
			return 0, fmt.Errorf("%w: descent exceeds %d levels at page %d", ErrCorrupt, maxDepth, id)
		}
		fr, err := t.p.Get(id)
		if err != nil {
			return 0, err
		}
		d := fr.Data()
		if err := checkNode(d, id); err != nil {
			fr.Unpin()
			return 0, err
		}
		if nodeCount(d) == 0 {
			fr.Unpin()
			return 0, nil // empty tree: any separator works
		}
		k := entryKey(d, 0)
		if nodeType(d) == leafType {
			fr.Unpin()
			return k, nil
		}
		id = pager.PageID(entryVal(d, 0))
		fr.Unpin()
	}
}

// put inserts into the subtree at id, recursing at most depth more
// levels. When the node splits, it returns the first key of the new
// right sibling and its page ID.
func (t *Tree) put(id pager.PageID, key, value int64, depth int) (promoted int64, newChild pager.PageID, err error) {
	if depth < 1 {
		return 0, 0, fmt.Errorf("%w: descent exceeds %d levels at page %d", ErrCorrupt, maxDepth, id)
	}
	fr, err := t.p.Get(id)
	if err != nil {
		return 0, 0, err
	}
	d := fr.Data()
	if err := checkNode(d, id); err != nil {
		fr.Unpin()
		return 0, 0, err
	}

	if nodeType(d) == leafType {
		n := nodeCount(d)
		i := lowerBound(d, key)
		if i < n && entryKey(d, i) == key {
			setEntry(d, i, key, value) // overwrite
			fr.MarkDirty()
			fr.Unpin()
			return 0, 0, nil
		}
		insertAt(d, i, n, key, value)
		t.size++
		fr.MarkDirty()
		if nodeCount(d) <= MaxEntries {
			fr.Unpin()
			return 0, 0, nil
		}
		promoted, newChild, err = t.splitLeaf(fr)
		fr.Unpin()
		return promoted, newChild, err
	}

	ci := childFor(d, key)
	child := pager.PageID(entryVal(d, ci))
	// Maintain the invariant that an entry's key never exceeds its
	// subtree's minimum: without this, inserting below the leftmost key
	// leaves a stale separator that can later collide with a promoted key
	// and misroute lookups.
	if key < entryKey(d, ci) {
		setEntry(d, ci, key, int64(child))
		fr.MarkDirty()
	}
	fr.Unpin() // release during recursion; page stays buffered
	pk, pc, err := t.put(child, key, value, depth-1)
	if err != nil || pc == 0 {
		return 0, 0, err
	}
	fr, err = t.p.Get(id)
	if err != nil {
		return 0, 0, err
	}
	d = fr.Data()
	n := nodeCount(d)
	i := lowerBound(d, pk)
	insertAt(d, i, n, pk, int64(pc))
	fr.MarkDirty()
	if nodeCount(d) <= MaxEntries {
		fr.Unpin()
		return 0, 0, nil
	}
	promoted, newChild, err = t.splitInner(fr)
	fr.Unpin()
	return promoted, newChild, err
}

// splitLeaf moves the upper half of fr into a new leaf.
func (t *Tree) splitLeaf(fr pager.Frame) (int64, pager.PageID, error) {
	d := fr.Data()
	n := nodeCount(d)
	right, err := t.p.Allocate()
	if err != nil {
		return 0, 0, err
	}
	rd := right.Data()
	initNode(rd, leafType)
	half := n / 2
	copy(rd[nodeHeader:], d[nodeHeader+half*entrySize:nodeHeader+n*entrySize])
	setCount(rd, n-half)
	setNextLeaf(rd, nextLeaf(d))
	setNextLeaf(d, right.ID())
	setCount(d, half)
	fr.MarkDirty()
	right.MarkDirty()
	promoted := entryKey(rd, 0)
	id := right.ID()
	right.Unpin()
	return promoted, id, nil
}

// splitInner moves the upper half of fr into a new inner node.
func (t *Tree) splitInner(fr pager.Frame) (int64, pager.PageID, error) {
	d := fr.Data()
	n := nodeCount(d)
	right, err := t.p.Allocate()
	if err != nil {
		return 0, 0, err
	}
	rd := right.Data()
	initNode(rd, innerType)
	half := n / 2
	copy(rd[nodeHeader:], d[nodeHeader+half*entrySize:nodeHeader+n*entrySize])
	setCount(rd, n-half)
	setCount(d, half)
	fr.MarkDirty()
	right.MarkDirty()
	promoted := entryKey(rd, 0)
	id := right.ID()
	right.Unpin()
	return promoted, id, nil
}

// Range calls fn for every (key, value) with lo <= key <= hi in ascending
// order, stopping early if fn returns false.
func (t *Tree) Range(lo, hi int64, fn func(key, value int64) bool) error {
	// Descend to the leaf covering lo.
	id := t.root
	for depth := 0; ; depth++ {
		if depth >= maxDepth {
			return fmt.Errorf("%w: descent exceeds %d levels at page %d", ErrCorrupt, maxDepth, id)
		}
		fr, err := t.p.Get(id)
		if err != nil {
			return err
		}
		d := fr.Data()
		if err := checkNode(d, id); err != nil {
			fr.Unpin()
			return err
		}
		if nodeType(d) == leafType {
			fr.Unpin()
			break
		}
		id = pager.PageID(entryVal(d, childFor(d, lo)))
		fr.Unpin()
	}
	// Walk the leaf chain. No well-formed chain is longer than the number
	// of allocated pages, so a longer walk proves a next-leaf cycle.
	maxSteps := int64(t.p.NumPages()) + 1
	for steps := int64(0); id != 0; steps++ {
		if steps >= maxSteps {
			return fmt.Errorf("%w: leaf chain longer than %d pages (cycle at page %d)", ErrCorrupt, maxSteps, id)
		}
		fr, err := t.p.Get(id)
		if err != nil {
			return err
		}
		d := fr.Data()
		if err := checkNode(d, id); err != nil {
			fr.Unpin()
			return err
		}
		n := nodeCount(d)
		for i := lowerBound(d, lo); i < n; i++ {
			k := entryKey(d, i)
			if k > hi {
				fr.Unpin()
				return nil
			}
			if !fn(k, entryVal(d, i)) {
				fr.Unpin()
				return nil
			}
		}
		id = nextLeaf(d)
		fr.Unpin()
	}
	return nil
}

// Height returns the number of levels (1 = a single leaf).
func (t *Tree) Height() (int, error) {
	h := 1
	id := t.root
	for {
		if h > maxDepth {
			return 0, fmt.Errorf("%w: descent exceeds %d levels at page %d", ErrCorrupt, maxDepth, id)
		}
		fr, err := t.p.Get(id)
		if err != nil {
			return 0, err
		}
		d := fr.Data()
		if err := checkNode(d, id); err != nil {
			fr.Unpin()
			return 0, err
		}
		if nodeType(d) == leafType {
			fr.Unpin()
			return h, nil
		}
		id = pager.PageID(entryVal(d, 0))
		fr.Unpin()
		h++
	}
}
