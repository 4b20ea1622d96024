package rtree

import (
	"encoding/binary"
	"errors"
	"math/rand"
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
	build := func(items []Item) pager.Backend {
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
	r := rand.New(rand.NewSource(3))
	items := make([]Item, 700)
	for i := range items {
		items[i] = Item{Box: randBox(r, 0.05), Ref: int64(i)}
	}
	want := items[0].Box
	for _, it := range items[1:] {
		want = want.Union(it.Box)
	}
	b := build(items)
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
	if _, err := RootBox(build(nil)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("empty tree: err = %v, want ErrCorrupt", err)
	}
}
