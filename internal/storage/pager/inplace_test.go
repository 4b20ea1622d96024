package pager

import (
	"bytes"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// pageOf returns a copy of page id as the backend stores it.
func pageOf(t *testing.T, b Backend, id PageID) []byte {
	t.Helper()
	buf := make([]byte, PageSize)
	if err := b.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

// filled reports whether page holds byte v throughout. It reads every
// byte in Go, where the race detector sees the reads.
func filled(page []byte, v byte) bool {
	for _, c := range page {
		if c != v {
			return false
		}
	}
	return len(page) == PageSize
}

// Over a bare MemBackend a frame points at the backend's page. A frame
// evicted and reused for another page is re-pointed, so the page it held
// keeps its bytes, whether Get or Allocate takes the frame over.
func TestReusedFrameLeavesItsLastPageIntact(t *testing.T) {
	const capPages = 4
	b := backendWithPages(t, 2*capPages)
	p := New(b, capPages)
	defer p.Close()
	get := func(id PageID) Frame {
		fr, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}
	for id := PageID(0); id < capPages; id++ {
		fr := get(id)
		fr.Unpin()
	}
	for id := PageID(capPages); id < 2*capPages; id++ { // every Get evicts and reuses a frame
		fr := get(id)
		if &fr.Data()[0] != &b.pages[id][0] {
			t.Fatalf("page %d: the frame holds a copy, not the backend's page", id)
		}
		if !filled(fr.Data(), byte(id+1)) {
			t.Fatalf("page %d: the frame does not hold its page", id)
		}
		fr.Unpin()
	}
	fr, err := p.Allocate() // evicts page capPages and takes over its frame
	if err != nil {
		t.Fatal(err)
	}
	if !filled(fr.Data(), 0) {
		t.Fatal("the allocated page is not zero")
	}
	fr.Unpin()
	if p.Stats().Evictions != capPages+1 {
		t.Fatalf("stats %+v: want %d evictions", p.Stats(), capPages+1)
	}
	for id := PageID(0); id < 2*capPages; id++ {
		if !filled(pageOf(t, b, id), byte(id+1)) {
			t.Errorf("page %d lost its bytes when its frame was reused", id)
		}
	}
}

// A miss over a bare MemBackend allocates no page buffer, the misses that
// first fill the pool included: only the frame itself is new.
func TestMissOverMemBackendAllocatesNoPage(t *testing.T) {
	const capPages = 64
	p := New(backendWithPages(t, 2*capPages), capPages)
	defer p.Close()
	var ms runtime.MemStats
	bytesPerMiss := func(from PageID) float64 {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for id := from; id < from+capPages; id++ {
			fr, err := p.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			fr.Unpin()
		}
		runtime.ReadMemStats(&ms)
		return float64(ms.TotalAlloc-before) / capPages
	}
	first := bytesPerMiss(0)
	steady := bytesPerMiss(capPages) // every Get evicts
	if st := p.Stats(); st.Misses != 2*capPages || st.Evictions != capPages {
		t.Fatalf("stats %+v: want %d misses, %d evictions", st, 2*capPages, capPages)
	}
	if first >= PageSize/4 || steady >= PageSize/4 {
		t.Fatalf("%.0f B per first miss, %.0f B per miss on a full pool: want < %d",
			first, steady, PageSize/4)
	}
}

// Readers of a page run beside FlushAll of that same dirty page, which
// points at its own backend memory: the flush writes the page onto
// itself, which MemBackend skips, so nothing writes what the readers read
// (the race detector's half of this test).
func TestFlushOntoItselfRacesWithNoReader(t *testing.T) {
	b := backendWithPages(t, 1)
	p := New(b, 4)
	defer p.Close()
	const readers, rounds = 2, 500
	var ready, done sync.WaitGroup
	var stop atomic.Bool
	ready.Add(readers)
	done.Add(readers)
	for range readers {
		go func() {
			defer done.Done()
			ready.Done()
			for !stop.Load() {
				fr, err := p.Get(0)
				if err != nil {
					t.Error(err)
					return
				}
				if !filled(fr.Data(), 1) {
					t.Error("a reader saw the page change")
				}
				fr.Unpin()
			}
		}()
	}
	ready.Wait()
	for range rounds {
		fr, err := p.Get(0)
		if err != nil {
			t.Fatal(err)
		}
		fr.MarkDirty()
		fr.Unpin()
		if err := p.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	done.Wait()
	if st := p.Stats(); st.Writes != rounds {
		t.Fatalf("stats %+v: want %d counted writes", st, rounds)
	}
	if !filled(pageOf(t, b, 0), 1) {
		t.Fatal("the page changed")
	}
}

// Both backends refuse a page read or write shorter than PageSize, and a
// refused write leaves the page as it was.
func TestBackendsRefuseShortBuffers(t *testing.T) {
	file, err := OpenFile(filepath.Join(t.TempDir(), "pages"))
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	for _, c := range []struct {
		name string
		b    Backend
	}{
		{"MemBackend", NewMemBackend()},
		{"FileBackend", file},
	} {
		id, err := c.b.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, PageSize - 1} {
			buf := bytes.Repeat([]byte{7}, n)
			if err := c.b.ReadPage(id, buf); err == nil {
				t.Errorf("%s: ReadPage into %d bytes succeeded", c.name, n)
			}
			if err := c.b.WritePage(id, buf); err == nil {
				t.Errorf("%s: WritePage of %d bytes succeeded", c.name, n)
			}
		}
		if !filled(pageOf(t, c.b, id), 0) {
			t.Errorf("%s: a refused write changed the page", c.name)
		}
	}
}
