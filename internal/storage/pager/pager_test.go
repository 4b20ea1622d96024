package pager

import (
	"os"
	"path/filepath"
	"testing"
)

func TestAllocateAndReadBack(t *testing.T) {
	p := New(NewMemBackend(), 8)
	defer p.Close()

	fr, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	copy(fr.Data(), "hello")
	fr.MarkDirty()
	id := fr.ID()
	fr.Unpin()

	got, err := p.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Data()[:5]) != "hello" {
		t.Fatalf("read back %q", got.Data()[:5])
	}
	got.Unpin()

	s := p.Stats()
	if s.Reads != 0 {
		t.Errorf("no disk read expected while buffered, got %d", s.Reads)
	}
	if s.Hits != 1 {
		t.Errorf("hits = %d, want 1", s.Hits)
	}
}

func TestMissCountsAsDiskAccess(t *testing.T) {
	p := New(NewMemBackend(), 8)
	defer p.Close()
	fr, _ := p.Allocate()
	copy(fr.Data(), "x")
	fr.MarkDirty()
	id := fr.ID()
	fr.Unpin()

	if err := p.DropCache(); err != nil {
		t.Fatal(err)
	}
	p.ResetStats()

	got, err := p.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	got.Unpin()
	s := p.Stats()
	if s.Reads != 1 || s.Misses != 1 {
		t.Fatalf("after cold read: %+v", s)
	}
	// Second access is a hit, not a disk access.
	got, _ = p.Get(id)
	got.Unpin()
	s = p.Stats()
	if s.Reads != 1 || s.Hits != 1 {
		t.Fatalf("after warm read: %+v", s)
	}
}

func TestEvictionWritesDirtyAndPreservesData(t *testing.T) {
	p := New(NewMemBackend(), 4)
	defer p.Close()
	var ids []PageID
	for i := 0; i < 10; i++ {
		fr, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		fr.Data()[0] = byte(i)
		fr.MarkDirty()
		ids = append(ids, fr.ID())
		fr.Unpin()
	}
	s := p.Stats()
	if s.Evictions == 0 {
		t.Fatal("expected evictions with pool smaller than working set")
	}
	if s.Writes == 0 {
		t.Fatal("dirty evictions must write")
	}
	for i, id := range ids {
		fr, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Data()[0] != byte(i) {
			t.Fatalf("page %d: got %d, want %d", id, fr.Data()[0], i)
		}
		fr.Unpin()
	}
}

func TestPinnedPagesSurviveEvictionPressure(t *testing.T) {
	p := New(NewMemBackend(), 4)
	defer p.Close()
	pinned, _ := p.Allocate()
	pinned.Data()[0] = 42
	pinned.MarkDirty()
	for i := 0; i < 8; i++ {
		fr, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		fr.Unpin()
	}
	if pinned.Data()[0] != 42 {
		t.Fatal("pinned frame was recycled")
	}
	pinned.Unpin()
}

func TestPoolExhaustion(t *testing.T) {
	p := New(NewMemBackend(), 4)
	defer p.Close()
	var frames []Frame
	for i := 0; i < 4; i++ {
		fr, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, fr)
	}
	if _, err := p.Allocate(); err == nil {
		t.Fatal("allocating past an all-pinned pool must fail")
	}
	for _, fr := range frames {
		fr.Unpin()
	}
	if _, err := p.Allocate(); err != nil {
		t.Fatalf("allocation after unpin should succeed: %v", err)
	}
}

func TestDropCacheRefusesPinned(t *testing.T) {
	p := New(NewMemBackend(), 8)
	defer p.Close()
	fr, _ := p.Allocate()
	if err := p.DropCache(); err == nil {
		t.Fatal("DropCache with pinned page must fail")
	}
	fr.Unpin()
	if err := p.DropCache(); err != nil {
		t.Fatal(err)
	}
}

func TestUnpinUnderflowAbsorbed(t *testing.T) {
	// A serving process must survive a double release (the error-unwind
	// pattern): it is absorbed and counted, never a panic or a negative
	// pin count.
	p := New(NewMemBackend(), 8)
	defer p.Close()
	fr, _ := p.Allocate()
	fr.Unpin()
	fr.Unpin()
	if got := p.Stats().UnpinErrors; got != 1 {
		t.Fatalf("UnpinErrors = %d, want 1", got)
	}
	if fr.f.pins != 0 {
		t.Fatalf("pin count = %d after double unpin, want 0", fr.f.pins)
	}
}

func TestClosedPagerErrors(t *testing.T) {
	p := New(NewMemBackend(), 8)
	fr, _ := p.Allocate()
	fr.Unpin()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(0); err != ErrClosed {
		t.Fatalf("Get after close: %v", err)
	}
	if _, err := p.Allocate(); err != ErrClosed {
		t.Fatalf("Allocate after close: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestLRUOrder(t *testing.T) {
	p := New(NewMemBackend(), 4)
	defer p.Close()
	var ids []PageID
	for i := 0; i < 4; i++ {
		fr, _ := p.Allocate()
		fr.Data()[0] = byte(i)
		fr.MarkDirty()
		ids = append(ids, fr.ID())
		fr.Unpin()
	}
	// Touch page 0 so page 1 becomes the LRU victim.
	fr, _ := p.Get(ids[0])
	fr.Unpin()
	fr, err := p.Allocate() // forces one eviction
	if err != nil {
		t.Fatal(err)
	}
	fr.Unpin()
	p.ResetStats()
	// Page 0 must still be buffered (no disk read)...
	fr, _ = p.Get(ids[0])
	fr.Unpin()
	if s := p.Stats(); s.Reads != 0 {
		t.Fatalf("page 0 should have been retained, stats %+v", s)
	}
	// ...while page 1 was evicted (one disk read).
	fr, _ = p.Get(ids[1])
	fr.Unpin()
	if s := p.Stats(); s.Reads != 1 {
		t.Fatalf("page 1 should have been evicted, stats %+v", s)
	}
}

// syncCounter counts the Syncs that reach a backend.
type syncCounter struct {
	Backend
	syncs int
}

func (b *syncCounter) Sync() error {
	b.syncs++
	return b.Backend.Sync()
}

// TestSyncOnlyAfterWrites: DropCache and FlushAll sync the backend when a
// page went to it since the last sync — from the flush itself or from an
// eviction's write-back, whose durability rides on the next flush — and
// not otherwise: the cold-cache prologue of a measured query is a pool
// that only read.
func TestSyncOnlyAfterWrites(t *testing.T) {
	be := &syncCounter{Backend: NewMemBackend()}
	p := New(be, 4)
	var ids []PageID
	for i := 0; i < 5; i++ { // one more page than frames
		fr, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, fr.ID())
		fr.Unpin()
	}
	step := func(what string, op func() error, want int) {
		t.Helper()
		before := be.syncs
		if err := op(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := be.syncs - before; got != want {
			t.Fatalf("%s: %d Syncs, want %d", what, got, want)
		}
	}
	touch := func(id PageID, dirty bool) {
		t.Helper()
		fr, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if dirty {
			fr.Data()[0]++
			fr.MarkDirty()
		}
		fr.Unpin()
	}
	step("FlushAll of the allocated pages", p.FlushAll, 1)
	step("FlushAll again", p.FlushAll, 0)
	step("DropCache of a clean pool", p.DropCache, 0)
	touch(ids[0], false)
	step("DropCache after a read", p.DropCache, 0)
	touch(ids[0], true)
	step("DropCache with a dirty page", p.DropCache, 1)

	// Evict a dirty page: the write-back happens at the eviction, the sync
	// it is owed at the next flush, which itself finds nothing dirty.
	touch(ids[0], true)
	for _, id := range ids[1:] {
		touch(id, false)
	}
	st := p.Stats()
	if st.Evictions == 0 {
		t.Fatal("five pages through four frames evicted nothing")
	}
	step("FlushAll after evicting a dirty page", p.FlushAll, 1)
	if p.Stats().Writes != st.Writes {
		t.Fatal("the flush wrote a page: the eviction was meant to")
	}
	step("FlushAll again", p.FlushAll, 0)
}

func TestMemBackendBounds(t *testing.T) {
	b := NewMemBackend()
	buf := make([]byte, PageSize)
	if err := b.ReadPage(0, buf); err == nil {
		t.Fatal("read of unallocated page must fail")
	}
	if err := b.WritePage(3, buf); err == nil {
		t.Fatal("write of unallocated page must fail")
	}
}

func TestFileBackendRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pages.db")
	b, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	p := New(b, 4)
	var ids []PageID
	for i := 0; i < 6; i++ {
		fr, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		fr.Data()[100] = byte(i * 3)
		fr.MarkDirty()
		ids = append(ids, fr.ID())
		fr.Unpin()
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and verify persistence.
	b2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b2.NumPages() != 6 {
		t.Fatalf("NumPages = %d, want 6", b2.NumPages())
	}
	p2 := New(b2, 4)
	defer p2.Close()
	for i, id := range ids {
		fr, err := p2.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Data()[100] != byte(i*3) {
			t.Fatalf("page %d: got %d want %d", id, fr.Data()[100], i*3)
		}
		fr.Unpin()
	}
}

func TestOpenFileRejectsCorruptSize(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.db")
	if err := os.WriteFile(path, make([]byte, PageSize+1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path); err == nil {
		t.Fatal("OpenFile must reject a size that is not page aligned")
	}
}

func TestConcurrentAccess(t *testing.T) {
	p := New(NewMemBackend(), 32)
	defer p.Close()
	var ids []PageID
	for i := 0; i < 16; i++ {
		fr, _ := p.Allocate()
		fr.Data()[0] = byte(i)
		fr.MarkDirty()
		ids = append(ids, fr.ID())
		fr.Unpin()
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 200; i++ {
				id := ids[(g+i)%len(ids)]
				fr, err := p.Get(id)
				if err != nil {
					done <- err
					return
				}
				_ = fr.Data()[0]
				fr.Unpin()
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func BenchmarkGetHit(b *testing.B) {
	p := New(NewMemBackend(), 64)
	defer p.Close()
	fr, _ := p.Allocate()
	id := fr.ID()
	fr.Unpin()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr, err := p.Get(id)
		if err != nil {
			b.Fatal(err)
		}
		fr.Unpin()
	}
}
