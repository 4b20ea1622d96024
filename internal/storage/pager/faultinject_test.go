package pager

import (
	"errors"
	"testing"
)

// faultBackend is a minimal in-package fault injector for the tests that
// must inspect shard internals. Everything else uses the real
// injection harness, internal/storage/faultfs (which imports this
// package, so in-package tests cannot import it back); see
// faultinject_ext_test.go.
type faultBackend struct {
	Backend
	failReads, failWrites bool
}

var errInjected = errors.New("injected fault")

func (f *faultBackend) ReadPage(id PageID, buf []byte) error {
	if f.failReads {
		return errInjected
	}
	return f.Backend.ReadPage(id, buf)
}

func (f *faultBackend) WritePage(id PageID, buf []byte) error {
	if f.failWrites {
		return errInjected
	}
	return f.Backend.WritePage(id, buf)
}

func TestClockReadFaultLeavesNoGhostFrame(t *testing.T) {
	fb := &faultBackend{Backend: NewMemBackend()}
	p := NewSharded(fb, 4, 1, Clock)
	defer p.Close()
	var ids []PageID
	for i := 0; i < 3; i++ {
		fr, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		fr.MarkDirty()
		ids = append(ids, fr.ID())
		fr.Unpin()
	}
	if err := p.DropCache(); err != nil {
		t.Fatal(err)
	}

	// A failed read must fully unregister the frame it created: before the
	// fix it was deleted from the frame map but left in the Clock ring as a
	// pinned ghost, leaking a ring slot per fault.
	fb.failReads = true
	for i := 0; i < 8; i++ {
		if _, err := p.Get(ids[0]); !errors.Is(err, errInjected) {
			t.Fatalf("Get error = %v, want injected fault", err)
		}
	}
	for _, sh := range p.pl.shards {
		if len(sh.ring) != 0 {
			t.Fatalf("ring holds %d stale entries after failed reads", len(sh.ring))
		}
		if len(sh.frames) != 0 {
			t.Fatalf("frame map holds %d stale entries after failed reads", len(sh.frames))
		}
	}
	// Nor may it be lost or duplicated: the eight failures went through
	// one of the three frames DropCache had put on the free list.
	if _, free, _ := census(p); free != 3 {
		t.Fatalf("free list holds %d frames after failed reads, want 3", free)
	}

	// The pool must still cycle through evictions normally afterwards.
	fb.failReads = false
	for round := 0; round < 3; round++ {
		for i, id := range ids {
			fr, err := p.Get(id)
			if err != nil {
				t.Fatalf("Get after faults cleared: %v", err)
			}
			if i == 0 && fr.Data()[0] != 0 {
				t.Fatalf("page %d corrupted", id)
			}
			fr.Unpin()
		}
	}
}
