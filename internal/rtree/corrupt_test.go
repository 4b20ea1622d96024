package rtree

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"dmesh/internal/geom"
	"dmesh/internal/storage/pager"
)

// buildCorruptibleTree bulk-loads n random boxes (fixed seed) and returns
// the tree.
func buildCorruptibleTree(t *testing.T, n int) *Tree {
	t.Helper()
	r := rand.New(rand.NewSource(11))
	items := make([]Item, n)
	for i := range items {
		x, y, e := r.Float64(), r.Float64(), r.Float64()
		items[i] = Item{Box: geom.Box{MinX: x, MinY: y, MinE: e, MaxX: x + 0.01, MaxY: y + 0.01, MaxE: e + 0.01}, Ref: int64(i)}
	}
	tr := newTree(t, 4096, items)
	if tr.height < 2 {
		t.Fatalf("tree too small to corrupt meaningfully (height %d)", tr.height)
	}
	return tr
}

// rewriteNode encodes n over its page in place: how a test corrupts a node.
func rewriteNode(t *testing.T, tr *Tree, n *node) {
	t.Helper()
	fr, err := tr.p.Get(n.id)
	if err != nil {
		t.Fatal(err)
	}
	tr.encodeNode(fr.Data(), n)
	fr.MarkDirty()
	fr.Unpin()
}

// flushedTree bulk-loads items and returns the backend the tree was
// flushed to: a tree to reopen, or to corrupt below any pager.
func flushedTree(t testing.TB, items []Item) *pager.MemBackend {
	t.Helper()
	b := pager.NewMemBackend()
	p := pager.New(b, 16)
	if _, err := BulkLoad(p, items); err != nil {
		t.Fatal(err)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	return b
}

func searchAll(tr *Tree) error {
	all := geom.Box{MinX: -1, MinY: -1, MinE: -1, MaxX: 2, MaxY: 2, MaxE: 2}
	return tr.Search(all, func(int64, geom.Box) bool { return true })
}

// A page whose type byte is garbage (what a corrupted index page looks
// like on an unchecksummed backend) must surface as ErrCorrupt on query
// paths, never a panic.
func TestSearchCorruptTypeByte(t *testing.T) {
	tr := buildCorruptibleTree(t, 500)
	root, err := tr.readNode(tr.root)
	if err != nil {
		t.Fatal(err)
	}
	child := pager.PageID(root.entries[0].ref)
	fr, err := tr.p.Get(child)
	if err != nil {
		t.Fatal(err)
	}
	fr.Data()[0] = 0xEE
	fr.MarkDirty()
	fr.Unpin()
	if err := searchAll(tr); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Search over corrupt page = %v, want ErrCorrupt", err)
	}
}

// An entry count no writer puts on a page is ErrCorrupt on every reader:
// one that cannot fit the page, and MaxEntries+1, which fits (a page has
// room for one entry more than a node holds) and would otherwise decode
// the page's unused last slot as an entry.
func TestSearchCorruptEntryCount(t *testing.T) {
	for _, cnt := range []uint16{0x7FFF, MaxEntries + 1} {
		tr := buildCorruptibleTree(t, 500)
		root, err := tr.readNode(tr.root)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := tr.p.Get(pager.PageID(root.entries[0].ref))
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint16(fr.Data()[1:], cnt)
		fr.MarkDirty()
		fr.Unpin()
		if err := searchAll(tr); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("count %d: Search = %v, want ErrCorrupt", cnt, err)
		}
		if err := tr.Nodes(func(NodeInfo) bool { return true }); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("count %d: Nodes = %v, want ErrCorrupt", cnt, err)
		}
	}
}

// A child pointer redirected back to the root (a cycle) must trip the
// depth guard instead of recursing forever.
func TestSearchCorruptChildCycle(t *testing.T) {
	tr := buildCorruptibleTree(t, 500)
	root, err := tr.readNode(tr.root)
	if err != nil {
		t.Fatal(err)
	}
	root.entries[0].ref = int64(tr.root)
	rewriteNode(t, tr, root)
	if err := searchAll(tr); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Search over child cycle = %v, want ErrCorrupt", err)
	}
	if err := tr.Nodes(func(NodeInfo) bool { return true }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Nodes over child cycle = %v, want ErrCorrupt", err)
	}
}

// TestRootBox: read straight from the backend, a flushed tree's root box
// is the union of every item's box, and a meta page with a bad magic or a
// root pointer off the file, or an empty tree, is ErrCorrupt.
func TestRootBox(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	items := make([]Item, 700)
	for i := range items {
		items[i] = Item{Box: randBox(r, 0.05), Ref: int64(i)}
	}
	want := items[0].Box
	for _, it := range items[1:] {
		want = want.Union(it.Box)
	}
	b := flushedTree(t, items)
	if got, err := RootBox(b); err != nil || got != want {
		t.Fatalf("RootBox = %+v, %v; want %+v", got, err, want)
	}

	meta := make([]byte, pager.PageSize)
	if err := b.ReadPage(metaPage, meta); err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string]func(d []byte){
		"bad magic":        func(d []byte) { d[0] ^= 0xff },
		"root off the end": func(d []byte) { binary.LittleEndian.PutUint32(d[4:], uint32(b.NumPages())) },
		"root on the meta": func(d []byte) { binary.LittleEndian.PutUint32(d[4:], uint32(metaPage)) },
	} {
		d := append([]byte{}, meta...)
		edit(d)
		if err := b.WritePage(metaPage, d); err != nil {
			t.Fatal(err)
		}
		if _, err := RootBox(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	if _, err := RootBox(flushedTree(t, nil)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("empty tree: err = %v, want ErrCorrupt", err)
	}
}

// An entry count of 0 is written only on the root of an empty tree. On
// any other node Nodes is ErrCorrupt, as on the root of a tree whose meta
// page counts entries; on the empty tree it visits no node.
func TestNodesEmptyNode(t *testing.T) {
	for _, id := range []func(*Tree) pager.PageID{
		func(*Tree) pager.PageID { return 1 }, // a leaf
		func(tr *Tree) pager.PageID { return tr.root },
	} {
		tr := buildCorruptibleTree(t, 500)
		page := id(tr)
		fr, err := tr.p.Get(page)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint16(fr.Data()[1:], 0)
		fr.MarkDirty()
		fr.Unpin()
		if err := tr.Nodes(func(NodeInfo) bool { return true }); !errors.Is(err, ErrCorrupt) {
			t.Errorf("page %d emptied: Nodes = %v, want ErrCorrupt", page, err)
		}
	}
	visited := 0
	if err := newTree(t, 16, nil).Nodes(func(NodeInfo) bool { visited++; return true }); err != nil || visited != 0 {
		t.Errorf("empty tree: Nodes = %v after %d nodes, want nil after none", err, visited)
	}
}

// TestOpenRefusesImpossibleMeta: a meta page with a bad magic, a root on
// the meta page or past the file's end, or a height of 0, above the
// file's node pages or other than the leftmost path's length is
// ErrCorrupt at Open, before any descent trusts it.
func TestOpenRefusesImpossibleMeta(t *testing.T) {
	b := flushedTree(t, fuzzItems())
	pages := uint32(b.NumPages())
	meta := make([]byte, pager.PageSize)
	if err := b.ReadPage(metaPage, meta); err != nil {
		t.Fatal(err)
	}
	open := func(edit func(d []byte)) error {
		d := append([]byte{}, meta...)
		edit(d)
		if err := b.WritePage(metaPage, d); err != nil {
			t.Fatal(err)
		}
		_, err := Open(pager.New(b, 16))
		return err
	}
	height := func(h uint32) func(d []byte) {
		return func(d []byte) { binary.LittleEndian.PutUint32(d[8:], h) }
	}
	for name, edit := range map[string]func(d []byte){
		"bad magic":        func(d []byte) { d[0] ^= 0xff },
		"root on the meta": func(d []byte) { binary.LittleEndian.PutUint32(d[4:], uint32(metaPage)) },
		"root off the end": func(d []byte) { binary.LittleEndian.PutUint32(d[4:], pages) },
		"height 0":         height(0),
		"height 1":         height(1),
		"height 3":         height(3),
		"height = pages":   height(pages),
		"height 2^16":      height(1 << 16),
		"height 2^32-1":    height(1<<32 - 1),
	} {
		if err := open(edit); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Open = %v, want ErrCorrupt", name, err)
		}
	}
	if err := open(height(2)); err != nil {
		t.Errorf("the tree's own height 2: Open = %v, want nil", err)
	}
}

// fuzzItems is the 500 boxes FuzzRTreePages and the meta-page tests
// corrupt a tree of: 10 pages, height 2.
func fuzzItems() []Item {
	r := rand.New(rand.NewSource(11))
	items := make([]Item, 500)
	for i := range items {
		items[i] = Item{Box: randBox(r, 0.01), Ref: int64(i)}
	}
	return items
}

// FuzzRTreePages overwrites bytes of a flushed 500-box tree, meta page
// included, each 4-byte group of the input one byte (page, offset low,
// offset high, value), and asserts that Open, a whole-space and a narrow
// Search, and Nodes neither panic nor hand out more than the file holds,
// and allocate within a bound.
func FuzzRTreePages(f *testing.F) {
	// The tree's pages: meta 0, leaves 1–8, root 9, height 2. Seeds: leaf
	// 1's entry count zeroed; the meta's height raised to 2^16 with the
	// root's first child pointing back at the root; the height raised to 9,
	// which the file could hold, with the root's last child pointing back
	// at it (the root's seven leaves handed out once a level).
	f.Add([]byte{})
	f.Add([]byte{1, 1, 0, 0, 1, 2, 0, 0})
	f.Add([]byte{0, 8, 0, 0, 0, 10, 0, 1, 9, nodeHeader + 48, 0, 9})
	f.Add([]byte{0, 8, 0, 9, 9, (nodeHeader + 7*entryBytes + 48) & 0xff, (nodeHeader + 7*entryBytes + 48) >> 8, 9})
	items := fuzzItems()
	whole := geom.Box{MinX: -1, MinY: -1, MinE: -1, MaxX: 2, MaxY: 2, MaxE: 2}
	narrow := geom.Box{MinX: 0.4, MinY: 0.4, MinE: 0, MaxX: 0.6, MaxY: 0.6, MaxE: 1}
	const pool = 16
	f.Fuzz(func(t *testing.T, data []byte) {
		b := flushedTree(t, items)
		pages := int(b.NumPages())
		buf := make([]byte, pager.PageSize)
		for ; len(data) >= 4; data = data[4:] {
			id := pager.PageID(int(data[0]) % pages)
			off := int(binary.LittleEndian.Uint16(data[1:])) % pager.PageSize
			if err := b.ReadPage(id, buf); err != nil {
				t.Fatal(err)
			}
			buf[off] = data[3]
			if err := b.WritePage(id, buf); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr, err := Open(pager.New(b, pool))
		if err != nil {
			return
		}
		limit := (pages + 1) * MaxEntries
		for _, q := range []geom.Box{whole, narrow} {
			handed := 0
			tr.Search(q, func(int64, geom.Box) bool {
				if handed++; handed > limit {
					t.Fatalf("Search(%v) handed out over %d entries from %d pages", q, limit, pages)
				}
				return true
			})
		}
		visited := 0
		tr.Nodes(func(NodeInfo) bool {
			if visited++; visited > pages+1 {
				t.Fatalf("Nodes visited over %d nodes of %d pages", pages+1, pages)
			}
			return true
		})
		runtime.ReadMemStats(&after)
		if got, max := after.TotalAlloc-before.TotalAlloc, uint64(pool*pager.PageSize+64<<10); got > max {
			t.Fatalf("reads allocated %d bytes, limit %d", got, max)
		}
	})
}
