// Package pager implements the page-based storage layer that every disk-
// resident structure in this repository (heap files, B+-trees, R*-trees,
// quadtrees, the HDoV tree) is built on.
//
// The paper measures query cost as the number of disk accesses reported by
// Oracle's performance statistics, with the database buffer flushed before
// each test. This package reproduces that methodology exactly: all
// structures read and write fixed-size pages through a buffer pool, a
// buffer-pool miss is one disk access, and DropCache simulates the paper's
// buffer flush. Absolute numbers therefore carry the same meaning as the
// paper's y axes.
//
// The buffer pool is split into independently locked shards (page ID
// hashed to shard, each shard with its own replacement state and capacity
// slice) so concurrent queries scale across cores. New creates a single
// shard, which preserves the exact replacement behavior — and therefore
// the exact disk-access counts — of a monolithic pool; the experiment
// harness relies on that. NewSharded opts into P shards for
// serving workloads. Statistics are atomic counters, and a Session can be
// attached (WithSession) to additionally attribute accesses to one query
// while other queries run.
package pager

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// PageSize is the size of every page in bytes (a common DBMS block size;
// Oracle's default in the 9i era was 4 KiB or 8 KiB).
const PageSize = 4096

// PageID identifies a page within one backend.
type PageID uint32

// ErrClosed is returned by operations on a closed pager or backend.
var ErrClosed = errors.New("pager: closed")

// Backend is the raw page store underneath a Pager.
type Backend interface {
	// ReadPage fills buf (len PageSize) with the content of page id.
	ReadPage(id PageID, buf []byte) error
	// WritePage stores buf (len PageSize) as the content of page id.
	WritePage(id PageID, buf []byte) error
	// Allocate extends the store by one zeroed page and returns its ID.
	Allocate() (PageID, error)
	// NumPages returns the number of allocated pages.
	NumPages() PageID
	// Sync durably flushes backend state.
	Sync() error
	// Close releases backend resources.
	Close() error
}

// Stats counts pager activity. Reads is the paper's "number of disk
// accesses" metric: buffer-pool misses served by the backend.
type Stats struct {
	Reads       uint64 // pages read from the backend (disk accesses)
	Writes      uint64 // pages written to the backend
	Hits        uint64 // buffer-pool hits
	Misses      uint64 // buffer-pool misses (== Reads)
	Evictions   uint64 // frames evicted to make room
	UnpinErrors uint64 // uses of a released or stale pin handle absorbed (see Frame.Unpin)
}

// counters is the atomic backing store for Stats.
type counters struct {
	reads       atomic.Uint64
	writes      atomic.Uint64
	hits        atomic.Uint64
	misses      atomic.Uint64
	evictions   atomic.Uint64
	unpinErrors atomic.Uint64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Reads:       c.reads.Load(),
		Writes:      c.writes.Load(),
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Evictions:   c.evictions.Load(),
		UnpinErrors: c.unpinErrors.Load(),
	}
}

func (c *counters) reset() {
	c.reads.Store(0)
	c.writes.Store(0)
	c.hits.Store(0)
	c.misses.Store(0)
	c.evictions.Store(0)
	c.unpinErrors.Store(0)
}

// Session attributes page accesses to one logical query (or request) while
// other queries run against the same pool. Attach it to a pager view with
// WithSession; every access through that view updates both the pool's
// global counters and the session's. A miss is charged to exactly one
// session (the one whose access performed the backend read), so concurrent
// sessions' Reads sum to the pool's Reads.
type Session struct {
	c counters
}

// Reads returns the disk accesses attributed to this session — the paper's
// cost metric, scoped to one query.
func (s *Session) Reads() uint64 { return s.c.reads.Load() }

// Reset zeroes the session's counters.
func (s *Session) Reset() { s.c.reset() }

// Policy selects the buffer pool's replacement policy.
type Policy int

const (
	// LRU evicts the least recently used unpinned page (the default).
	LRU Policy = iota
	// Clock approximates LRU with a second-chance ring — constant-time
	// bookkeeping per access, the policy most real buffer managers use.
	Clock
)

// frame is one page buffer. A shard allocates at most cap of them, lazily,
// and keeps them: resident (in sh.frames — pinned, or unpinned and, under
// LRU, on the LRU list) or on the free list until the next miss. gen counts
// its trips there, which tells a pin handle that outlived its page.
type frame struct {
	sh         *shard
	id         PageID
	gen        uint32
	data       []byte
	dirty      bool
	pins       int
	prev, next *frame // LRU list while unpinned, nil while pinned; next alone links the free list
	ref        bool   // Clock: second-chance bit
	slot       int    // Clock: position in the ring (-1 when absent)
}

// insertAfter links f into the LRU list behind at; unlink takes it out.
func (f *frame) insertAfter(at *frame) {
	f.prev, f.next = at, at.next
	at.next.prev, at.next = f, f
}

func (f *frame) unlink() {
	f.prev.next, f.next.prev = f.next, f.prev
	f.prev, f.next = nil, nil
}

// shard is one independently locked slice of the buffer pool with its own
// replacement state and capacity.
type shard struct {
	pl     *pool
	mu     sync.Mutex
	cap    int
	frames map[PageID]*frame
	lru    frame    // LRU: list sentinel; lru.next = most recently used, lru.prev = next victim
	free   *frame   // frames between pages, linked through next
	ring   []*frame // Clock: all frames in arrival order
	hand   int      // Clock: sweep position
}

// pool is the shared state behind one or more Pager views.
type pool struct {
	backend Backend
	policy  Policy
	shards  []*shard
	allocMu sync.Mutex // serializes backend allocation
	stats   counters
	closed  atomic.Bool
	// unsynced is set when a page is handed to the backend — by a flush
	// or by an eviction's write-back — and cleared by the Sync that
	// follows: a pool that only read has nothing to make durable. (A page
	// Allocate added is born dirty, so it is written, and sets this,
	// before any Sync that matters to it.) Set under a shard lock, cleared
	// under all of them.
	unsynced atomic.Bool
}

// Pager is a buffer pool over a Backend. It is safe for concurrent use.
// Frames handed out by Get/Allocate are pinned and will not be evicted
// until unpinned. A Pager value is a view: WithSession derives further
// views over the same pool that attribute accesses to a Session.
type Pager struct {
	pl   *pool
	sess *Session
}

// New creates an LRU pager over backend with capacity for capPages
// buffered pages (minimum 4) in a single shard.
func New(backend Backend, capPages int) *Pager {
	return NewSharded(backend, capPages, 1, LRU)
}

// NewSharded creates a pager whose buffer pool is split into shards
// independently locked shards; page IDs hash to shards, and each shard
// runs the replacement policy over its own slice of the capacity. One
// shard reproduces the monolithic pool exactly (same evictions, same
// disk-access counts); more shards let concurrent queries proceed in
// parallel. The shard count is capped so every shard holds at least 4
// pages.
func NewSharded(backend Backend, capPages, shards int, policy Policy) *Pager {
	capPages = max(capPages, 4)
	shards = min(max(shards, 1), capPages/4)
	pl := &pool{backend: backend, policy: policy, shards: make([]*shard, shards)}
	base, extra := capPages/shards, capPages%shards
	for i := range pl.shards {
		c := base
		if i < extra {
			c++
		}
		sh := &shard{pl: pl, cap: c, frames: make(map[PageID]*frame, c)}
		sh.lru.prev, sh.lru.next = &sh.lru, &sh.lru
		pl.shards[i] = sh
	}
	return &Pager{pl: pl}
}

// WithSession returns a view of the same pager that additionally
// attributes page accesses to s. Views share the buffer pool, frames and
// global statistics; only the attribution differs. Any number of views may
// be used concurrently.
func (p *Pager) WithSession(s *Session) *Pager {
	return &Pager{pl: p.pl, sess: s}
}

// shardOf maps a page ID to its shard (Fibonacci hashing; any fixed
// deterministic map works, the requirement is an even spread).
func (pl *pool) shardOf(id PageID) *shard {
	if len(pl.shards) == 1 {
		return pl.shards[0]
	}
	h := (uint64(id) + 1) * 0x9E3779B97F4A7C15
	return pl.shards[(h>>32)%uint64(len(pl.shards))]
}

// Frame is a pin on one buffered page, held by value (the zero Frame pins
// nothing). Callers must Unpin it when done and call MarkDirty before Unpin
// if they modified Data. It records its frame's generation when pinned, so
// a copy that outlives the pin cannot reach the page the frame holds next;
// a handle recycled by pointer would simply be the next holder's.
type Frame struct {
	f        *frame
	gen      uint32
	released bool // set by Unpin
}

// Pinned reports whether fr came from a successful Get or Allocate and has
// not been Unpinned through this copy.
func (fr *Frame) Pinned() bool { return fr.f != nil && !fr.released }

// ID returns the page ID.
func (fr *Frame) ID() PageID { return fr.f.id }

// Data returns the page content. The slice is valid until Unpin.
func (fr *Frame) Data() []byte { return fr.f.data }

// live reports whether fr is still a pin on its frame's current page (shard lock held).
func (fr *Frame) live() bool { return !fr.released && fr.f.gen == fr.gen && fr.f.pins > 0 }

// MarkDirty records that the page content was modified. Through a released
// or stale handle it changes nothing and is counted in Stats.UnpinErrors.
func (fr *Frame) MarkDirty() {
	sh := fr.f.sh
	sh.mu.Lock()
	if fr.live() {
		fr.f.dirty = true
	} else {
		sh.pl.stats.unpinErrors.Add(1)
	}
	sh.mu.Unlock()
}

// Unpin releases the frame. After Unpin the Frame must not be used.
//
// Unpin is idempotent per Frame handle: a second call on the same handle
// — what `defer fr.Unpin()` after an explicit release on a mid-query error
// path produces — or one through a copy whose frame has since gone to
// another page is absorbed and counted in Stats.UnpinErrors rather than
// corrupting a pin count or panicking: serving must survive error unwinding.
func (fr *Frame) Unpin() {
	f := fr.f
	sh := f.sh
	sh.mu.Lock()
	if !fr.live() {
		sh.pl.stats.unpinErrors.Add(1)
	} else if f.pins--; f.pins == 0 {
		if sh.pl.policy == LRU {
			f.insertAfter(&sh.lru)
		} else {
			f.ref = true
		}
	}
	fr.released = true
	sh.mu.Unlock()
}

// Get pins page id, reading it from the backend on a buffer-pool miss. The
// miss is counted once the pool has made room: a Get refused because every
// frame is pinned is no disk access, a backend read that failed is one.
func (p *Pager) Get(id PageID) (Frame, error) {
	pl := p.pl
	if pl.closed.Load() {
		return Frame{}, ErrClosed
	}
	sh := pl.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if f, ok := sh.frames[id]; ok {
		pl.stats.hits.Add(1)
		if p.sess != nil {
			p.sess.c.hits.Add(1)
		}
		sh.touch(f)
		return Frame{f: f, gen: f.gen}, nil
	}
	f, err := sh.newFrame(id, p.sess)
	if err != nil {
		return Frame{}, err
	}
	pl.stats.misses.Add(1)
	pl.stats.reads.Add(1)
	if p.sess != nil {
		p.sess.c.misses.Add(1)
		p.sess.c.reads.Add(1)
	}
	if err := pl.backend.ReadPage(id, f.data); err != nil {
		sh.recycle(f) // never registered: no map entry, no Clock ring slot to undo
		return Frame{}, fmt.Errorf("pager: read page %d: %w", id, err)
	}
	sh.register(f)
	return Frame{f: f, gen: f.gen}, nil
}

// Allocate creates a new zeroed page, pinned and marked dirty. No disk
// read is charged (the page is born in the buffer pool).
func (p *Pager) Allocate() (Frame, error) {
	pl := p.pl
	if pl.closed.Load() {
		return Frame{}, ErrClosed
	}
	pl.allocMu.Lock()
	id, err := pl.backend.Allocate()
	pl.allocMu.Unlock()
	if err != nil {
		return Frame{}, fmt.Errorf("pager: allocate: %w", err)
	}
	sh := pl.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f, err := sh.newFrame(id, p.sess)
	if err != nil {
		return Frame{}, err
	}
	clear(f.data) // a recycled buffer holds its last page
	f.dirty = true
	sh.register(f)
	return Frame{f: f, gen: f.gen}, nil
}

// touch pins f, removing it from the LRU list if it was unpinned.
// Caller holds sh.mu.
func (sh *shard) touch(f *frame) {
	if sh.pl.policy == Clock {
		f.ref = true
	} else if f.pins == 0 {
		f.unlink()
	}
	f.pins++
}

// newFrame makes room for and returns a pinned frame for page id, from the
// free list or, at most cap times in a shard's life, newly allocated. The
// caller fills it and registers it, or recycles it. Caller holds sh.mu.
func (sh *shard) newFrame(id PageID, sess *Session) (*frame, error) {
	if err := sh.makeRoom(sess); err != nil {
		return nil, err
	}
	f := sh.free
	if f == nil {
		f = &frame{sh: sh, data: make([]byte, PageSize)}
	}
	sh.free, f.next = f.next, nil
	f.id, f.pins, f.slot = id, 1, -1
	return f, nil
}

// register makes f resident: findable by page ID and, under Clock, in the
// ring at the arrival end. Caller holds sh.mu.
func (sh *shard) register(f *frame) {
	sh.frames[f.id] = f
	if sh.pl.policy == Clock {
		f.slot = len(sh.ring)
		sh.ring = append(sh.ring, f)
	}
}

// recycle puts a frame that is out of sh.frames, the LRU list and the ring
// on the free list; Get's read or Allocate's clear overwrites its bytes.
func (sh *shard) recycle(f *frame) {
	f.gen++
	f.pins, f.dirty, f.ref = 0, false, false
	f.prev, f.next = nil, sh.free
	sh.free = f
}

// removeFromRing takes f out of the Clock ring (swap with the last entry)
// and renormalizes the sweep hand. Caller holds sh.mu.
func (sh *shard) removeFromRing(f *frame) {
	last := len(sh.ring) - 1
	sh.ring[f.slot] = sh.ring[last]
	sh.ring[f.slot].slot = f.slot
	sh.ring = sh.ring[:last]
	if len(sh.ring) > 0 {
		sh.hand %= len(sh.ring)
	} else {
		sh.hand = 0
	}
	f.slot = -1
}

// makeRoom evicts one unpinned frame (per policy) when the shard is full.
// Caller holds sh.mu.
func (sh *shard) makeRoom(sess *Session) error {
	if len(sh.frames) < sh.cap {
		return nil
	}
	var victim *frame
	switch sh.pl.policy {
	case LRU:
		if sh.lru.prev != &sh.lru {
			victim = sh.lru.prev
			victim.unlink()
		}
	case Clock:
		// Second-chance sweep: clear reference bits until an unpinned,
		// unreferenced frame comes around. Two full sweeps with no victim
		// means everything is pinned.
		for scanned, n := 0, 2*len(sh.ring); victim == nil && scanned < n; scanned++ {
			f := sh.ring[sh.hand]
			sh.hand = (sh.hand + 1) % len(sh.ring)
			if f.pins > 0 {
				continue
			}
			if f.ref {
				f.ref = false
				continue
			}
			victim = f
			sh.removeFromRing(f)
		}
	}
	if victim == nil {
		return fmt.Errorf("pager: buffer pool exhausted: all %d frames pinned", sh.cap)
	}
	if victim.dirty {
		sh.pl.stats.writes.Add(1)
		if sess != nil {
			sess.c.writes.Add(1)
		}
		sh.pl.unsynced.Store(true)
		if err := sh.pl.backend.WritePage(victim.id, victim.data); err != nil {
			// The victim is out of the replacement structure; put it back
			// or it would stay resident and re-Gettable but never evictable,
			// a one-frame capacity leak per failed eviction write.
			if sh.pl.policy == LRU {
				victim.insertAfter(sh.lru.prev)
			} else {
				victim.slot = len(sh.ring)
				sh.ring = append(sh.ring, victim)
			}
			return fmt.Errorf("pager: evict page %d: %w", victim.id, err)
		}
	}
	delete(sh.frames, victim.id)
	sh.recycle(victim)
	sh.pl.stats.evictions.Add(1)
	if sess != nil {
		sess.c.evictions.Add(1)
	}
	return nil
}

// lockAll acquires every shard lock in shard order (the fixed order makes
// whole-pool operations deadlock-free against each other).
func (pl *pool) lockAll() {
	for _, sh := range pl.shards {
		sh.mu.Lock()
	}
}

func (pl *pool) unlockAll() {
	for _, sh := range pl.shards {
		sh.mu.Unlock()
	}
}

// FlushAll writes every dirty buffered page to the backend (pages stay
// buffered) and syncs it, unless no page was written since the last sync.
func (p *Pager) FlushAll() error {
	pl := p.pl
	if pl.closed.Load() {
		return ErrClosed
	}
	pl.lockAll()
	defer pl.unlockAll()
	return pl.flushAllLocked()
}

// flushAllLocked flushes every shard. Caller holds all shard locks.
func (pl *pool) flushAllLocked() error {
	for _, sh := range pl.shards {
		for id, f := range sh.frames {
			if !f.dirty {
				continue
			}
			pl.stats.writes.Add(1)
			pl.unsynced.Store(true)
			if err := pl.backend.WritePage(id, f.data); err != nil {
				return fmt.Errorf("pager: flush page %d: %w", id, err)
			}
			f.dirty = false
		}
	}
	if !pl.unsynced.Load() {
		return nil
	}
	if err := pl.backend.Sync(); err != nil {
		return err // still unsynced: the next flush tries again
	}
	pl.unsynced.Store(false)
	return nil
}

// DropCache flushes dirty pages and then empties the buffer pool,
// simulating the cold-cache state the paper establishes before each
// measured query ("the database and system buffer is flushed before each
// test"). It fails if any frame is pinned; concurrent Get/Unpin callers
// simply serialize against it.
func (p *Pager) DropCache() error {
	pl := p.pl
	if pl.closed.Load() {
		return ErrClosed
	}
	pl.lockAll()
	defer pl.unlockAll()
	for _, sh := range pl.shards {
		for _, f := range sh.frames {
			if f.pins > 0 {
				return fmt.Errorf("pager: DropCache with page %d pinned", f.id)
			}
		}
	}
	if err := pl.flushAllLocked(); err != nil {
		return err
	}
	for _, sh := range pl.shards {
		for _, f := range sh.frames {
			sh.recycle(f)
		}
		clear(sh.frames)
		sh.lru.prev, sh.lru.next = &sh.lru, &sh.lru
		sh.ring, sh.hand = sh.ring[:0], 0
	}
	return nil
}

// Stats returns a snapshot of the pool-wide counters. Under concurrency
// the fields are individually, not mutually, consistent.
func (p *Pager) Stats() Stats { return p.pl.stats.snapshot() }

// ResetStats zeroes the pool-wide counters (typically right after
// DropCache, before a measured query). Attached Sessions are unaffected.
func (p *Pager) ResetStats() { p.pl.stats.reset() }

// NumPages reports the number of allocated pages in the backend.
func (p *Pager) NumPages() PageID {
	return p.pl.backend.NumPages()
}

// Close flushes and closes the pager and its backend. All views share the
// closed state.
func (p *Pager) Close() error {
	pl := p.pl
	if pl.closed.Load() {
		return nil
	}
	pl.lockAll()
	defer pl.unlockAll()
	if pl.closed.Load() {
		return nil
	}
	if err := pl.flushAllLocked(); err != nil {
		return err
	}
	pl.closed.Store(true)
	return pl.backend.Close()
}
