// Package btree implements a paged B+-tree mapping int64 keys to int64
// values. The paper creates "B+-tree indexes ... wherever necessary for all
// the tables used"; here they map point IDs to the heap-file records that
// hold them, so that a by-ID fetch costs the same page accesses it would in
// the paper's Oracle setup.
//
// Every tree here maps the dense IDs 0 … N−1 and is written once, by
// Build, then only read: there is no insert, overwrite or deletion.
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

	// MaxEntries is the most entries a node holds, (4096-8)/16 - 1 = 254:
	// one below what a page has room for, the bound every tree was
	// written under and checkNode holds pages to.
	MaxEntries = (pager.PageSize-nodeHeader)/entrySize - 1

	// half is what Build puts in every node but the last of a level.
	half = (MaxEntries + 1) / 2
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
	if n := nodeCount(d); n > MaxEntries {
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

// Build writes onto b, which must be empty, the tree that maps key i to
// vals[i] for every i in [0, len(vals)), then syncs b. It writes the
// pages straight to the backend, bottom-up, so no pager's pool holds
// them; Open then reads the tree through one.
//
// Every node holds half = 127 entries but the last of each level, which
// takes the rest (128 … MaxEntries, or all of them when they fit one
// node), and an inner entry's key is its subtree's first key. That is
// the partition ascending one-key inserts with half splits used to
// leave: the same key ranges per leaf and the same height, so a lookup
// reads the pages it always did and the PM baseline's figures hold.
// Packing nodes fuller would flatter that baseline.
func Build(b pager.Backend, vals []int64) error {
	if b.NumPages() != 0 {
		return errors.New("btree: Build requires an empty backend")
	}
	if _, err := b.Allocate(); err != nil { // the meta page, written last
		return err
	}
	size := len(vals)
	d := make([]byte, pager.PageSize)
	typ := byte(leafType)
	var keys []int64 // nil on the leaf level, whose keys are the indexes
	for {
		n := len(vals)
		nodes := max(1, (n-1)/half)
		firsts := make([]int64, nodes)
		ids := make([]int64, nodes)
		id, err := b.Allocate()
		if err != nil {
			return err
		}
		for k := range nodes {
			lo, hi := k*half, (k+1)*half
			if k == nodes-1 {
				hi = n
			}
			clear(d)
			d[0] = typ
			for i := lo; i < hi; i++ {
				key := int64(i)
				if keys != nil {
					key = keys[i]
				}
				setEntry(d, i-lo, key, vals[i])
			}
			setCount(d, hi-lo)
			firsts[k], ids[k] = entryKey(d, 0), int64(id)
			next := pager.PageID(0)
			if k < nodes-1 {
				if next, err = b.Allocate(); err != nil {
					return err
				}
			}
			if typ == leafType {
				setNextLeaf(d, next)
			}
			if err := b.WritePage(id, d); err != nil {
				return err
			}
			id = next
		}
		if nodes == 1 {
			clear(d)
			binary.LittleEndian.PutUint32(d[0:], magic)
			binary.LittleEndian.PutUint32(d[4:], uint32(ids[0]))
			binary.LittleEndian.PutUint64(d[8:], uint64(size))
			if err := b.WritePage(metaPage, d); err != nil {
				return err
			}
			return b.Sync()
		}
		typ, keys, vals = innerType, firsts, ids
	}
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

// On returns a read-only copy of the tree that reads through p, a view of
// the tree's own pager (Pager.WithSession), so that its page accesses are
// also attributed to the view's session.
func (t *Tree) On(p *pager.Pager) Tree {
	cp := *t
	cp.p = p
	return cp
}

// Len returns the number of keys stored.
func (t *Tree) Len() int64 { return t.size }

// --- node accessors -------------------------------------------------------

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
