package pager

import "testing"

func TestClockEvictionPreservesData(t *testing.T) {
	p := NewSharded(NewMemBackend(), 4, 1, Clock)
	defer p.Close()
	var ids []PageID
	for i := 0; i < 12; i++ {
		fr, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		fr.Data()[0] = byte(i)
		fr.MarkDirty()
		ids = append(ids, fr.ID())
		fr.Unpin()
	}
	if s := p.Stats(); s.Evictions == 0 {
		t.Fatal("expected evictions")
	}
	for i, id := range ids {
		fr, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Data()[0] != byte(i) {
			t.Fatalf("page %d corrupted", id)
		}
		fr.Unpin()
	}
}

func TestClockSecondChance(t *testing.T) {
	p := NewSharded(NewMemBackend(), 4, 1, Clock)
	defer p.Close()
	var ids []PageID
	for i := 0; i < 4; i++ {
		fr, _ := p.Allocate()
		fr.MarkDirty()
		ids = append(ids, fr.ID())
		fr.Unpin()
	}
	// First eviction sweep clears every reference bit and evicts one page.
	fr, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	fr.Unpin()
	// Re-reference one survivor (the sweep evicted the oldest page, so
	// ids[2] is still buffered): its bit is now set while other survivors'
	// bits are clear, so the next sweep must evict one of THEM.
	hot := ids[2]
	p.ResetStats()
	f, err := p.Get(hot)
	if err != nil {
		t.Fatal(err)
	}
	f.Unpin()
	if p.Stats().Reads != 0 {
		t.Fatalf("setup: expected ids[2] to be buffered")
	}
	fr, err = p.Allocate() // second eviction: must spare the hot page
	if err != nil {
		t.Fatal(err)
	}
	fr.Unpin()
	p.ResetStats()
	f, err = p.Get(hot)
	if err != nil {
		t.Fatal(err)
	}
	f.Unpin()
	if s := p.Stats(); s.Reads != 0 {
		t.Fatalf("second-chance failed: hot page %d was evicted", hot)
	}
}

func TestClockPinnedPagesSurvive(t *testing.T) {
	p := NewSharded(NewMemBackend(), 4, 1, Clock)
	defer p.Close()
	pinned, _ := p.Allocate()
	pinned.Data()[0] = 42
	pinned.MarkDirty()
	for i := 0; i < 10; i++ {
		fr, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		fr.Unpin()
	}
	if pinned.Data()[0] != 42 {
		t.Fatal("pinned frame recycled")
	}
	pinned.Unpin()
}

func TestClockExhaustion(t *testing.T) {
	p := NewSharded(NewMemBackend(), 4, 1, Clock)
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
		t.Fatal("all-pinned pool must refuse allocation")
	}
	for _, fr := range frames {
		fr.Unpin()
	}
	if _, err := p.Allocate(); err != nil {
		t.Fatalf("allocation after unpin: %v", err)
	}
}

func TestClockDropCache(t *testing.T) {
	p := NewSharded(NewMemBackend(), 8, 1, Clock)
	defer p.Close()
	var ids []PageID
	for i := 0; i < 6; i++ {
		fr, _ := p.Allocate()
		fr.Data()[0] = byte(i + 1)
		fr.MarkDirty()
		ids = append(ids, fr.ID())
		fr.Unpin()
	}
	if err := p.DropCache(); err != nil {
		t.Fatal(err)
	}
	p.ResetStats()
	for i, id := range ids {
		fr, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Data()[0] != byte(i+1) {
			t.Fatalf("page %d lost after DropCache", id)
		}
		fr.Unpin()
	}
	if s := p.Stats(); s.Reads != uint64(len(ids)) {
		t.Fatalf("cold reads = %d, want %d", s.Reads, len(ids))
	}
}

func TestClockScanResistanceVsLRU(t *testing.T) {
	// A hot page accessed between sequential sweeps must survive under
	// both policies; this pins down that Clock's ref bits actually work
	// under scan pressure.
	for _, policy := range []Policy{LRU, Clock} {
		p := NewSharded(NewMemBackend(), 8, 1, policy)
		hot, _ := p.Allocate()
		hotID := hot.ID()
		hot.MarkDirty()
		hot.Unpin()
		var cold []PageID
		for i := 0; i < 32; i++ {
			fr, _ := p.Allocate()
			fr.MarkDirty()
			cold = append(cold, fr.ID())
			fr.Unpin()
		}
		// Interleave hot accesses with a cold scan.
		for i, id := range cold {
			fr, err := p.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			fr.Unpin()
			if i%2 == 0 {
				h, err := p.Get(hotID)
				if err != nil {
					t.Fatal(err)
				}
				h.Unpin()
			}
		}
		p.ResetStats()
		h, err := p.Get(hotID)
		if err != nil {
			t.Fatal(err)
		}
		h.Unpin()
		if s := p.Stats(); s.Reads != 0 {
			t.Fatalf("policy %v: hot page evicted during scan", policy)
		}
		p.Close()
	}
}
