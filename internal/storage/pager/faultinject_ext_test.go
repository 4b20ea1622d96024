package pager_test

import (
	"errors"
	"testing"

	"dmesh/internal/storage/faultfs"
	"dmesh/internal/storage/pager"
)

// always is a schedule that fires on every access.
func always() faultfs.Schedule { return faultfs.Schedule{Every: 1} }

func TestReadFaultPropagates(t *testing.T) {
	fb := faultfs.Wrap(pager.NewMemBackend())
	p := pager.New(fb, 8)
	fr, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	id := fr.ID()
	fr.MarkDirty()
	fr.Unpin()
	if err := p.DropCache(); err != nil {
		t.Fatal(err)
	}

	fb.SetSchedule(faultfs.Read, always())
	if _, err := p.Get(id); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Get error = %v, want injected fault", err)
	}
	// The failed frame must not linger: recovery works once reads heal.
	fb.Heal()
	fr, err = p.Get(id)
	if err != nil {
		t.Fatalf("Get after fault cleared: %v", err)
	}
	fr.Unpin()
}

func TestEvictionWriteFaultPropagates(t *testing.T) {
	fb := faultfs.Wrap(pager.NewMemBackend())
	p := pager.New(fb, 4)
	// Fill the pool with dirty pages.
	for i := 0; i < 4; i++ {
		fr, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		fr.MarkDirty()
		fr.Unpin()
	}
	fb.SetSchedule(faultfs.Write, always())
	// The next allocation must evict a dirty page and fail loudly, not
	// silently drop data.
	if _, err := p.Allocate(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Allocate during failed eviction = %v, want injected fault", err)
	}
}

// A failed eviction write must leave the victim evictable: before the
// fix the victim was removed from the replacement structure but kept in
// the frame map, so each failed eviction leaked one frame of capacity
// until the pool reported "all frames pinned" with nothing pinned.
func TestEvictionWriteFaultDoesNotLeakCapacity(t *testing.T) {
	fb := faultfs.Wrap(pager.NewMemBackend())
	p := pager.New(fb, 4)
	for i := 0; i < 4; i++ {
		fr, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		fr.MarkDirty()
		fr.Unpin()
	}
	fb.SetSchedule(faultfs.Write, always())
	// More failed attempts than the pool has frames: every one must
	// report the injected write fault, not pool exhaustion.
	for i := 0; i < 6; i++ {
		if _, err := p.Allocate(); !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("attempt %d: Allocate = %v, want injected fault", i, err)
		}
	}
	// Once writes heal, the pool cycles normally again.
	fb.Heal()
	for i := 0; i < 4; i++ {
		fr, err := p.Allocate()
		if err != nil {
			t.Fatalf("Allocate after healing: %v", err)
		}
		fr.MarkDirty()
		fr.Unpin()
	}
	// And it still has all of its frames: as many distinct pages as
	// its capacity pin at once.
	var held []pager.Frame
	for id := pager.PageID(0); id < 4; id++ {
		fr, err := p.Get(id)
		if err != nil {
			t.Fatalf("pinning page %d of 4 after healing: %v", id, err)
		}
		held = append(held, fr)
	}
	for i := range held {
		held[i].Unpin()
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestAllocateFaultPropagates(t *testing.T) {
	fb := faultfs.Wrap(pager.NewMemBackend())
	fb.SetSchedule(faultfs.Alloc, always())
	p := pager.New(fb, 8)
	if _, err := p.Allocate(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Allocate = %v, want injected fault", err)
	}
}

func TestFlushFaultPropagates(t *testing.T) {
	fb := faultfs.Wrap(pager.NewMemBackend())
	p := pager.New(fb, 8)
	fr, _ := p.Allocate()
	fr.MarkDirty()
	fr.Unpin()
	fb.SetSchedule(faultfs.Write, always())
	if err := p.FlushAll(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("FlushAll = %v, want injected fault", err)
	}
	if err := p.DropCache(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("DropCache = %v, want injected fault", err)
	}
	// Healing the backend lets the flush complete.
	fb.Heal()
	if err := p.FlushAll(); err != nil {
		t.Fatalf("FlushAll after healing: %v", err)
	}
}

// Unpin must absorb the double release an error-unwinding caller
// produces (explicit Unpin plus a deferred one) instead of panicking or
// corrupting the pin count.
func TestUnpinIsIdempotentPerHandle(t *testing.T) {
	p := pager.New(pager.NewMemBackend(), 8)
	fr, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	id := fr.ID()
	fr.MarkDirty()
	fr.Unpin()
	fr.Unpin() // the deferred duplicate — must not panic
	if got := p.Stats().UnpinErrors; got != 1 {
		t.Fatalf("UnpinErrors = %d, want 1", got)
	}

	// The duplicate must not have gone below zero: a fresh pin still
	// protects the page from DropCache.
	fr2, err := p.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.DropCache(); err == nil {
		t.Fatal("DropCache succeeded with a pinned page — duplicate Unpin corrupted the pin count")
	}
	fr2.Unpin()
	if err := p.DropCache(); err != nil {
		t.Fatalf("DropCache after release: %v", err)
	}
}

// A checksummed backend over a fault injector: injected bit rot below
// the checksum layer surfaces as ErrChecksum through the pager, and the
// pool recovers once the rot stops.
func TestChecksumOverFaultfs(t *testing.T) {
	inner := faultfs.Wrap(pager.NewMemBackend())
	cb, err := pager.Checksummed(inner)
	if err != nil {
		t.Fatal(err)
	}
	p := pager.New(cb, 8)
	fr, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	id := fr.ID()
	copy(fr.Data(), "payload")
	fr.MarkDirty()
	fr.Unpin()
	if err := p.DropCache(); err != nil {
		t.Fatal(err)
	}

	// Corrupt every read: the pager's Get must report a checksum failure,
	// never hand out a silently wrong page.
	inner.SetCorrupt(faultfs.Schedule{Every: 1, Seed: 3})
	if _, err := p.Get(id); !errors.Is(err, pager.ErrChecksum) {
		t.Fatalf("Get of rotted page = %v, want ErrChecksum", err)
	}
	inner.Heal()
	fr, err = p.Get(id)
	if err != nil {
		t.Fatalf("Get after rot stopped: %v", err)
	}
	if string(fr.Data()[:7]) != "payload" {
		t.Fatal("page content corrupted")
	}
	fr.Unpin()
}
