package btree

import (
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"dmesh/internal/storage/pager"
)

// buildCorruptibleTree builds a multi-level tree over 1000 keys.
func buildCorruptibleTree(t *testing.T) *Tree {
	t.Helper()
	tr, _ := denseTree(t, 1000)
	h, err := tr.Height()
	if err != nil {
		t.Fatal(err)
	}
	if h < 2 {
		t.Fatalf("tree too small to corrupt meaningfully (height %d)", h)
	}
	return tr
}

// smash rewrites page id through fn.
func smash(t *testing.T, tr *Tree, id pager.PageID, fn func(d []byte)) {
	t.Helper()
	fr, err := tr.p.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	fn(fr.Data())
	fr.MarkDirty()
	fr.Unpin()
}

// requireCorrupt fails unless Get(key), a full Range and Height all
// report ErrCorrupt.
func requireCorrupt(t *testing.T, tr *Tree, key int64) {
	t.Helper()
	if v, err := tr.Get(key); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get(%d) = %d, %v; want ErrCorrupt", key, v, err)
	}
	if err := tr.Range(0, 1<<62, func(int64, int64) bool { return true }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Range = %v, want ErrCorrupt", err)
	}
	if h, err := tr.Height(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Height = %d, %v; want ErrCorrupt", h, err)
	}
}

func TestGetCorruptTypeByte(t *testing.T) {
	tr := buildCorruptibleTree(t)
	smash(t, tr, tr.root, func(d []byte) { d[0] = 0xEE })
	requireCorrupt(t, tr, 500)
}

func TestGetCorruptEntryCount(t *testing.T) {
	tr := buildCorruptibleTree(t)
	smash(t, tr, tr.root, func(d []byte) { setCount(d, 30000) })
	if _, err := tr.Get(500); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get over corrupt count = %v, want ErrCorrupt", err)
	}
}

// A leaf one entry over MaxEntries is corrupt even when the page has room
// for the extra entry and it holds a well-ordered key: no tree is written
// with one.
func TestGetCorruptOverfullLeaf(t *testing.T) {
	tr, _ := denseTree(t, MaxEntries)
	smash(t, tr, tr.root, func(d []byte) {
		setEntry(d, MaxEntries, MaxEntries, 7)
		setCount(d, MaxEntries+1)
	})
	requireCorrupt(t, tr, MaxEntries)
}

// A child pointer redirected back to the root must trip the descent
// bound instead of looping forever.
func TestGetCorruptDescentCycle(t *testing.T) {
	tr := buildCorruptibleTree(t)
	root := tr.root
	smash(t, tr, root, func(d []byte) {
		if nodeType(d) != innerType {
			t.Fatal("root is not inner")
		}
		// Point every child entry back at the root itself.
		for i := 0; i < nodeCount(d); i++ {
			setEntry(d, i, entryKey(d, i), int64(root))
		}
	})
	requireCorrupt(t, tr, 500)
}

// A next-leaf pointer redirected at the leaf itself must trip the
// chain-length bound instead of scanning forever.
func TestRangeCorruptLeafChainCycle(t *testing.T) {
	tr := buildCorruptibleTree(t)
	// Find the first leaf.
	id := tr.root
	for {
		fr, err := tr.p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		d := fr.Data()
		if nodeType(d) == leafType {
			fr.Unpin()
			break
		}
		id = pager.PageID(entryVal(d, 0))
		fr.Unpin()
	}
	smash(t, tr, id, func(d []byte) { setNextLeaf(d, id) })
	err := tr.Range(0, 1<<62, func(int64, int64) bool { return true })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Range over leaf cycle = %v, want ErrCorrupt", err)
	}
}

func TestGetCorruptEmptyInner(t *testing.T) {
	tr := buildCorruptibleTree(t)
	smash(t, tr, tr.root, func(d []byte) {
		if nodeType(d) != innerType {
			t.Fatal("root is not inner")
		}
		setCount(d, 0)
	})
	if _, err := tr.Get(500); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get over empty inner = %v, want ErrCorrupt", err)
	}
}

// FuzzBTreePages overwrites bytes of a 1000-key tree that Build wrote —
// the meta page included — and reads it back through Open, Get, Range and
// Height. Each 4 input bytes name a page (modulo the page count), an
// offset in it (little-endian, modulo the page size) and the byte to put
// there. Whatever the pages say, nothing panics, Range hands out no more
// entries than the pages can hold (a walk that does not end would), and
// the reads allocate no more than a pool's worth of frames plus a
// constant.
func FuzzBTreePages(f *testing.F) {
	// The tree's pages: meta 0, leaves 1–7, root 8. Seeds: a root type
	// byte, a root entry count, a leaf chain cycle, the meta's root
	// pointer at a leaf, a root child pointing at the root, an overfull
	// leaf.
	f.Add([]byte{})
	f.Add([]byte{8, 0, 0, 0xEE})
	f.Add([]byte{8, 1, 0, 0xFF})
	f.Add([]byte{1, 3, 0, 1})
	f.Add([]byte{0, 4, 0, 1})
	f.Add([]byte{8, 16, 0, 8})
	f.Add([]byte{7, 1, 0, 0xFF})
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = 3*int64(i) + 1
	}
	const pool = 16
	f.Fuzz(func(t *testing.T, data []byte) {
		b := pager.NewMemBackend()
		if err := Build(b, vals); err != nil {
			t.Fatal(err)
		}
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
		p := pager.New(b, pool)
		tr, err := Open(p)
		if err != nil {
			return
		}
		for _, k := range []int64{-1, 0, 126, 127, 500, 999, 1000} {
			tr.Get(k)
		}
		limit := (pages + 1) * MaxEntries
		for _, w := range [][2]int64{{-1 << 62, 1 << 62}, {400, 600}} {
			visits := 0
			tr.Range(w[0], w[1], func(int64, int64) bool {
				if visits++; visits > limit {
					t.Fatalf("Range(%d, %d) handed out over %d entries from %d pages", w[0], w[1], limit, pages)
				}
				return true
			})
		}
		tr.Height()
		runtime.ReadMemStats(&after)
		if got, max := after.TotalAlloc-before.TotalAlloc, uint64(pool*pager.PageSize+64<<10); got > max {
			t.Fatalf("reads allocated %d bytes, limit %d", got, max)
		}
	})
}
