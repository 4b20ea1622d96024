package pager

import (
	"strings"
	"sync"
	"testing"
)

// prepPages allocates n pages, writes a marker byte into each, and leaves
// the pool cold.
func prepPages(t *testing.T, p *Pager, n int) []PageID {
	t.Helper()
	ids := make([]PageID, 0, n)
	for i := 0; i < n; i++ {
		fr, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		fr.Data()[0] = byte(i)
		fr.MarkDirty()
		ids = append(ids, fr.ID())
		fr.Unpin()
	}
	if err := p.DropCache(); err != nil {
		t.Fatal(err)
	}
	p.ResetStats()
	return ids
}

// TestShardedStatsConsistency hammers a sharded pool from many goroutines
// and checks the atomic counters add up: every Get is exactly one hit or
// one miss, and reads equal misses.
func TestShardedStatsConsistency(t *testing.T) {
	p := NewSharded(NewMemBackend(), 256, 8, LRU)
	defer p.Close()
	ids := prepPages(t, p, 64)

	const goroutines, iters = 8, 500
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := ids[(g*13+i)%len(ids)]
				fr, err := p.Get(id)
				if err != nil {
					errs <- err
					return
				}
				_ = fr.Data()[0]
				fr.Unpin()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s := p.Stats()
	if got := s.Hits + s.Misses; got != goroutines*iters {
		t.Fatalf("hits+misses = %d, want %d", got, goroutines*iters)
	}
	if s.Reads != s.Misses {
		t.Fatalf("reads %d != misses %d", s.Reads, s.Misses)
	}
	// The pool is large enough that each page is read from the backend at
	// most once (single-flight under the shard lock).
	if s.Reads != uint64(len(ids)) {
		t.Fatalf("reads = %d, want %d (one compulsory miss per page)", s.Reads, len(ids))
	}
}

// TestSessionAttribution runs two sessions over disjoint page sets and
// checks each session sees exactly its own disk accesses while the global
// counters see the sum.
func TestSessionAttribution(t *testing.T) {
	p := NewSharded(NewMemBackend(), 256, 4, LRU)
	defer p.Close()
	ids := prepPages(t, p, 40)

	sa, sb := &Session{}, &Session{}
	va, vb := p.WithSession(sa), p.WithSession(sb)
	var wg sync.WaitGroup
	run := func(v *Pager, pages []PageID) {
		defer wg.Done()
		for _, id := range pages {
			fr, err := v.Get(id)
			if err != nil {
				t.Error(err)
				return
			}
			fr.Unpin()
		}
	}
	wg.Add(2)
	go run(va, ids[:25])
	go run(vb, ids[25:])
	wg.Wait()

	if got := sa.Reads(); got != 25 {
		t.Errorf("session A reads = %d, want 25", got)
	}
	if got := sb.Reads(); got != 15 {
		t.Errorf("session B reads = %d, want 15", got)
	}
	if got := p.Stats().Reads; got != sa.Reads()+sb.Reads() {
		t.Errorf("global reads %d != session sum %d", got, sa.Reads()+sb.Reads())
	}
	// Warm re-access through a session counts hits, not reads.
	fr, err := va.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	fr.Unpin()
	if s := sa.c.snapshot(); s.Reads != 25 || s.Hits != 1 {
		t.Errorf("after warm re-access: %+v", s)
	}
}

// TestDropCacheInterleavesWithGets interleaves Get/Unpin traffic with
// repeated DropCache calls: DropCache either succeeds or reports a pinned
// page; it must never race or corrupt the pool (run under -race).
func TestDropCacheInterleavesWithGets(t *testing.T) {
	p := NewSharded(NewMemBackend(), 128, 4, LRU)
	defer p.Close()
	ids := prepPages(t, p, 32)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				fr, err := p.Get(ids[(g+i)%len(ids)])
				if err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if want := byte((g + i) % len(ids)); fr.Data()[0] != want {
					t.Errorf("page content %d, want %d", fr.Data()[0], want)
					fr.Unpin()
					return
				}
				fr.Unpin()
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		if err := p.DropCache(); err != nil && !strings.Contains(err.Error(), "pinned") {
			t.Errorf("DropCache: %v", err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestShardedColdReadsMatchSingleShard verifies the DA-determinism
// invariant behind the figure runners: with a pool large enough to avoid
// evictions, a cold access sequence costs exactly the same disk accesses
// no matter how many shards the pool is split into.
func TestShardedColdReadsMatchSingleShard(t *testing.T) {
	counts := make(map[int]uint64)
	for _, shards := range []int{1, 4, 16} {
		p := NewSharded(NewMemBackend(), 1024, shards, LRU)
		ids := prepPages(t, p, 100)
		// A fixed access pattern with repeats.
		for i := 0; i < 300; i++ {
			fr, err := p.Get(ids[(i*7)%len(ids)])
			if err != nil {
				t.Fatal(err)
			}
			fr.Unpin()
		}
		counts[shards] = p.Stats().Reads
		p.Close()
	}
	if counts[4] != counts[1] || counts[16] != counts[1] {
		t.Fatalf("cold reads differ across shard counts: %v", counts)
	}
}

// TestShardCapacityDistribution checks the capacity splits and the
// shard-count clamp (every shard holds at least 4 pages).
func TestShardCapacityDistribution(t *testing.T) {
	p := NewSharded(NewMemBackend(), 10, 3, LRU)
	defer p.Close()
	if got := len(p.pl.shards); got != 2 {
		t.Fatalf("shards = %d, want clamp to 2", got)
	}
	var total int
	for _, sh := range p.pl.shards {
		if sh.cap < 4 {
			t.Fatalf("shard capacity %d below minimum", sh.cap)
		}
		total += sh.cap
	}
	if total != 10 {
		t.Fatalf("capacities sum to %d, want 10", total)
	}
}
