package pager

import (
	"errors"
	"testing"
)

// census returns how many frames the pool holds resident and on its free
// lists, and its total capacity.
func census(p *Pager) (resident, free, capPages int) {
	for _, sh := range p.pl.shards {
		resident += len(sh.frames)
		for f := sh.free; f != nil; f = f.next {
			free++
		}
		capPages += sh.cap
	}
	return resident, free, capPages
}

// backendWithPages returns a backend holding n pages, page i filled with
// byte(i+1).
func backendWithPages(t testing.TB, n int) *MemBackend {
	t.Helper()
	b := NewMemBackend()
	buf := make([]byte, PageSize)
	for i := 0; i < n; i++ {
		id, err := b.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		for j := range buf {
			buf[j] = byte(i + 1)
		}
		if err := b.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// A recycled buffer still holds the page it was evicted with; Allocate
// must hand out zeroes all the same.
func TestAllocateAfterEvictionIsZeroed(t *testing.T) {
	for _, policy := range []Policy{LRU, Clock} {
		p := NewSharded(backendWithPages(t, 4), 4, 1, policy)
		for id := PageID(0); id < 4; id++ {
			fr, err := p.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			fr.Unpin()
		}
		fr, err := p.Allocate() // evicts a page and takes over its buffer
		if err != nil {
			t.Fatal(err)
		}
		if _, free, _ := census(p); free != 0 || p.Stats().Evictions != 1 {
			t.Fatalf("policy %v: the allocation did not recycle a frame (free %d, stats %+v)", policy, free, p.Stats())
		}
		for i, b := range fr.Data() {
			if b != 0 {
				t.Fatalf("policy %v: allocated page has byte %#x at %d", policy, b, i)
			}
		}
		fr.Unpin()
		p.Close()
	}
}

// Failed reads and failed eviction writes hand their frames back: after
// any number of them the shard still owns at most cap frames, none is
// lost, and cap distinct pages can be pinned at once.
func TestFaultsLeaveEveryFrameAccountedFor(t *testing.T) {
	const capPages, faults = 4, 9
	for _, policy := range []Policy{LRU, Clock} {
		fb := &faultBackend{Backend: backendWithPages(t, 8)}
		p := NewSharded(fb, capPages, 1, policy)
		for id := PageID(0); id < capPages; id++ {
			fr, err := p.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			fr.MarkDirty()
			fr.Unpin()
		}
		fb.failWrites = true
		for i := 0; i < faults; i++ {
			if _, err := p.Get(5); !errors.Is(err, errInjected) {
				t.Fatalf("policy %v: Get over a failing eviction write = %v", policy, err)
			}
		}
		fb.failWrites, fb.failReads = false, true
		for i := 0; i < faults; i++ {
			if _, err := p.Get(5); !errors.Is(err, errInjected) {
				t.Fatalf("policy %v: Get over a failing read = %v", policy, err)
			}
		}
		fb.failReads = false
		if resident, free, c := census(p); resident+free > c || resident != capPages-1 || free != 1 {
			t.Fatalf("policy %v: %d resident + %d free frames of %d after the faults", policy, resident, free, c)
		}
		if err := p.DropCache(); err != nil {
			t.Fatal(err)
		}
		var held []Frame
		for id := PageID(0); id < capPages; id++ {
			fr, err := p.Get(id)
			if err != nil {
				t.Fatalf("policy %v: pinning page %d of %d: %v", policy, id, capPages, err)
			}
			if fr.Data()[0] != byte(id+1) || fr.Data()[PageSize-1] != byte(id+1) {
				t.Fatalf("policy %v: page %d reads %#x", policy, id, fr.Data()[0])
			}
			held = append(held, fr)
		}
		if _, err := p.Get(capPages); err == nil {
			t.Fatalf("policy %v: a pool of %d pinned a page beyond its capacity", policy, capPages)
		}
		if resident, free, c := census(p); resident != c || free != 0 {
			t.Fatalf("policy %v: %d resident + %d free frames of %d with the pool pinned full", policy, resident, free, c)
		}
		for i := range held {
			held[i].Unpin()
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// A copy of a handle that outlives its pin must not reach the page the
// frame holds next.
func TestStaleHandleLeavesNewTenantAlone(t *testing.T) {
	p := New(backendWithPages(t, 5), 4)
	defer p.Close()
	var stale Frame
	for id := PageID(0); id < 4; id++ {
		fr, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if id == 0 {
			stale = fr // copied while pinned
		}
		fr.Unpin()
	}
	tenant, err := p.Get(4) // evicts page 0, the LRU victim, and takes its frame
	if err != nil {
		t.Fatal(err)
	}
	defer tenant.Unpin()
	if tenant.f != stale.f || tenant.ID() != 4 {
		t.Fatalf("setup: page 4 did not land in page 0's frame")
	}
	stale.MarkDirty()
	if tenant.f.dirty {
		t.Fatal("MarkDirty through a stale handle dirtied the new tenant")
	}
	if got := p.Stats().UnpinErrors; got != 1 {
		t.Fatalf("UnpinErrors = %d after the stale MarkDirty, want 1", got)
	}
	stale.Unpin()
	if tenant.f.pins != 1 {
		t.Fatalf("Unpin through a stale handle left the tenant with %d pins", tenant.f.pins)
	}
	if got := p.Stats().UnpinErrors; got != 2 {
		t.Fatalf("UnpinErrors = %d after the stale Unpin, want 2", got)
	}
	if stale.Pinned() {
		t.Fatal("a released handle still reports Pinned")
	}
	if err := p.DropCache(); err == nil {
		t.Fatal("DropCache succeeded although the tenant is pinned")
	}
}

func TestDropCacheRefusedLeavesFramesResident(t *testing.T) {
	p := NewSharded(backendWithPages(t, 12), 16, 2, LRU)
	defer p.Close()
	var pinned Frame
	for id := PageID(0); id < 12; id++ {
		fr, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if id == 7 {
			pinned = fr
		} else {
			fr.Unpin()
		}
	}
	if err := p.DropCache(); err == nil {
		t.Fatal("DropCache with a pinned page must fail")
	}
	if resident, free, _ := census(p); resident != 12 || free != 0 {
		t.Fatalf("a refused DropCache left %d resident, %d free frames; want 12, 0", resident, free)
	}
	p.ResetStats()
	for id := PageID(0); id < 12; id++ {
		fr, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		fr.Unpin()
	}
	if s := p.Stats(); s.Hits != 12 || s.Reads != 0 {
		t.Fatalf("after a refused DropCache: %+v, want 12 hits", s)
	}
	pinned.Unpin()
	if err := p.DropCache(); err != nil {
		t.Fatal(err)
	}
	if resident, free, _ := census(p); resident != 0 || free != 12 {
		t.Fatalf("DropCache left %d resident, %d free frames; want 0, 12", resident, free)
	}
}

// A Get the pool cannot make room for reaches no backend, so it is not a
// disk access.
func TestExhaustedGetChargesNoDiskAccess(t *testing.T) {
	for _, policy := range []Policy{LRU, Clock} {
		sess := &Session{}
		p := NewSharded(backendWithPages(t, 5), 4, 1, policy).WithSession(sess)
		var held []Frame
		for id := PageID(0); id < 4; id++ {
			fr, err := p.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, fr)
		}
		before, sessBefore := p.Stats(), sess.c.snapshot()
		if _, err := p.Get(4); err == nil {
			t.Fatalf("policy %v: Get on an all-pinned pool succeeded", policy)
		}
		if got := p.Stats(); got != before {
			t.Fatalf("policy %v: pool stats moved on a refused Get: %+v -> %+v", policy, before, got)
		}
		if got := sess.c.snapshot(); got != sessBefore {
			t.Fatalf("policy %v: session stats moved on a refused Get: %+v -> %+v", policy, sessBefore, got)
		}
		for i := range held {
			held[i].Unpin()
		}
		p.Close()
	}
}

// The pin path's steady state allocates nothing: a frame, its buffer and
// its place in the replacement order are all reused, and the handle is a
// value.
func TestPinPathAllocatesNothing(t *testing.T) {
	const capPages = 8
	for _, policy := range []Policy{LRU, Clock} {
		p := NewSharded(backendWithPages(t, 2*capPages), capPages, 1, policy).WithSession(&Session{})
		pin := func(id PageID) {
			fr, err := p.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			fr.Unpin()
		}
		for id := PageID(0); id < 2*capPages; id++ { // fill the pool and size its map
			pin(id)
		}
		next := PageID(0)
		cases := []struct {
			name string
			fn   func()
		}{
			{"hit", func() { pin(2*capPages - 1) }},
			{"miss with the pool full", func() { // a cycle twice the pool's size never hits
				pin(next)
				next = (next + 1) % (2 * capPages)
			}},
			{"DropCache and refill", func() {
				if err := p.DropCache(); err != nil {
					t.Fatal(err)
				}
				for id := PageID(0); id < capPages; id++ {
					pin(id)
				}
			}},
		}
		for _, c := range cases {
			misses := p.Stats().Misses
			if got := testing.AllocsPerRun(50, c.fn); got != 0 {
				t.Errorf("policy %v: %s: %v allocations per run, want 0", policy, c.name, got)
			}
			if c.name != "hit" && p.Stats().Misses == misses {
				t.Errorf("policy %v: %s: no miss was measured", policy, c.name)
			}
		}
		p.Close()
	}
}

// benchPool returns a pool of capPages frames over a backend of pages
// pages, every page read once: the pool is full and owns all its frames.
func benchPool(b *testing.B, pages, capPages int) *Pager {
	p := New(backendWithPages(b, pages), capPages)
	for id := 0; id < pages; id++ {
		fr, err := p.Get(PageID(id))
		if err != nil {
			b.Fatal(err)
		}
		fr.Unpin()
	}
	return p
}

// A cycle twice the pool's size never hits: every Get evicts, recycles and
// reads.
func BenchmarkGetMissSteady(b *testing.B) {
	const capPages = 64
	p := benchPool(b, 2*capPages, capPages)
	defer p.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr, err := p.Get(PageID(i % (2 * capPages)))
		if err != nil {
			b.Fatal(err)
		}
		fr.Unpin()
	}
}

// One iteration is a DropCache of a full 64-page pool and its refill, the
// shape of every cold query.
func BenchmarkDropCacheRefill(b *testing.B) {
	const capPages = 64
	p := benchPool(b, capPages, capPages)
	defer p.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.DropCache(); err != nil {
			b.Fatal(err)
		}
		for id := PageID(0); id < capPages; id++ {
			fr, err := p.Get(id)
			if err != nil {
				b.Fatal(err)
			}
			fr.Unpin()
		}
	}
}
