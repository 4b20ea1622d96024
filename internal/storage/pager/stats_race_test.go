package pager

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestStatsSnapshotUnderConcurrentMutation hammers a sharded pool from
// several goroutines while a reader snapshots Stats continuously,
// asserting every counter is monotone across snapshots (no torn or
// negative values — a decrement would show up as a huge uint64 jump
// backwards) and that the final snapshot balances: hits + misses equals
// the accesses issued, misses equals reads.
func TestStatsSnapshotUnderConcurrentMutation(t *testing.T) {
	const (
		pages    = 256
		capPages = 32 // far smaller than the page set: constant evictions
		writers  = 6
		accesses = 4000
	)
	b := NewMemBackend()
	for i := 0; i < pages; i++ {
		if _, err := b.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	p := NewSharded(b, capPages, 4, LRU)

	var issued atomic.Uint64
	stop := make(chan struct{})
	var snapErr error
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		var prev Stats
		for {
			st := p.Stats()
			if st.Reads < prev.Reads || st.Writes < prev.Writes ||
				st.Hits < prev.Hits || st.Misses < prev.Misses ||
				st.Evictions < prev.Evictions || st.UnpinErrors < prev.UnpinErrors {
				snapErr = &statsRegression{prev: prev, cur: st}
				return
			}
			prev = st
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			x := seed*2654435761 + 1
			for i := 0; i < accesses; i++ {
				x = x*6364136223846793005 + 1442695040888963407 // LCG
				fr, err := p.Get(PageID(x % pages))
				if err != nil {
					t.Error(err)
					return
				}
				fr.Unpin()
				issued.Add(1)
			}
		}(uint64(w))
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()
	if snapErr != nil {
		t.Fatal(snapErr)
	}

	st := p.Stats()
	if st.Hits+st.Misses != issued.Load() {
		t.Errorf("hits %d + misses %d = %d, want %d accesses", st.Hits, st.Misses, st.Hits+st.Misses, issued.Load())
	}
	if st.Misses != st.Reads {
		t.Errorf("misses %d != reads %d", st.Misses, st.Reads)
	}
	if st.Misses < pages {
		t.Errorf("only %d misses over %d distinct pages", st.Misses, pages)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

type statsRegression struct{ prev, cur Stats }

func (e *statsRegression) Error() string {
	return "stats went backwards between snapshots: " +
		"prev " + formatStats(e.prev) + " -> cur " + formatStats(e.cur)
}

func formatStats(s Stats) string {
	b := make([]byte, 0, 64)
	app := func(name string, v uint64) {
		b = append(b, name...)
		b = append(b, '=')
		b = appendUint(b, v)
		b = append(b, ' ')
	}
	app("reads", s.Reads)
	app("writes", s.Writes)
	app("hits", s.Hits)
	app("misses", s.Misses)
	app("evictions", s.Evictions)
	return string(b)
}

func appendUint(b []byte, v uint64) []byte {
	if v == 0 {
		return append(b, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}

// TestSessionStatsConcurrentAttribution runs concurrent sessions over
// one pool and checks the attribution invariant Stats documents: every
// miss is charged to exactly one session, so the sessions' Reads sum to
// the pool's Reads (and likewise hits).
func TestSessionStatsConcurrentAttribution(t *testing.T) {
	const (
		pages    = 128
		sessions = 8
		accesses = 2000
	)
	b := NewMemBackend()
	for i := 0; i < pages; i++ {
		if _, err := b.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	// Each of the 8 sessions pins one frame at a time; with 4 shards the
	// per-shard capacity must exceed the concurrent pin count.
	p := NewSharded(b, 64, 4, LRU)

	sess := make([]*Session, sessions)
	var wg sync.WaitGroup
	for i := range sess {
		sess[i] = &Session{}
		view := p.WithSession(sess[i])
		wg.Add(1)
		go func(v *Pager, seed uint64) {
			defer wg.Done()
			x := seed + 7
			for j := 0; j < accesses; j++ {
				x = x*6364136223846793005 + 1442695040888963407
				fr, err := v.Get(PageID(x % pages))
				if err != nil {
					t.Error(err)
					return
				}
				fr.Unpin()
			}
		}(view, uint64(i))
	}
	wg.Wait()

	var sumReads, sumHits uint64
	for _, s := range sess {
		st := s.c.snapshot()
		sumReads += st.Reads
		sumHits += st.Hits
	}
	pst := p.Stats()
	if sumReads != pst.Reads {
		t.Errorf("session reads sum to %d, pool reads %d", sumReads, pst.Reads)
	}
	if sumHits != pst.Hits {
		t.Errorf("session hits sum to %d, pool hits %d", sumHits, pst.Hits)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}
