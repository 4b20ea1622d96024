package pager

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// The reference pool: the replacement algorithm as it stood before the
// frame-recycling rewrite (map + container/list), reduced to what decides
// the counters and the resident set. TestReplacementMatchesModel drives it beside the real
// pager; any schedule on which the two disagree is a moved eviction
// order, which is a moved disk-access count in every figure.
type mframe struct {
	id    PageID
	dirty bool
	pins  int
	elem  *list.Element
}

type mshard struct {
	cap    int
	frames map[PageID]*mframe
	lru    *list.List
}

type model struct {
	shards []*mshard
	st     Stats
}

func (m *model) get(sh *mshard, id PageID) {
	if f, ok := sh.frames[id]; ok {
		m.st.Hits++
		if f.pins == 0 && f.elem != nil {
			sh.lru.Remove(f.elem)
			f.elem = nil
		}
		f.pins++
		return
	}
	m.st.Misses++
	m.st.Reads++
	m.newFrame(sh, id)
}

func (m *model) newFrame(sh *mshard, id PageID) *mframe {
	m.makeRoom(sh)
	f := &mframe{id: id, pins: 1}
	sh.frames[id] = f
	return f
}

func (m *model) makeRoom(sh *mshard) {
	if len(sh.frames) < sh.cap {
		return
	}
	elem := sh.lru.Back()
	victim := elem.Value.(*mframe)
	sh.lru.Remove(elem)
	victim.elem = nil
	if victim.dirty {
		m.st.Writes++
	}
	delete(sh.frames, victim.id)
	m.st.Evictions++
}

func (m *model) unpin(sh *mshard, id PageID) {
	f := sh.frames[id]
	f.pins--
	if f.pins == 0 {
		f.elem = sh.lru.PushFront(f)
	}
}

func (m *model) flushAll() {
	for _, sh := range m.shards {
		for _, f := range sh.frames {
			if f.dirty {
				m.st.Writes++
				f.dirty = false
			}
		}
	}
}

func (m *model) dropCache() {
	m.flushAll()
	for _, sh := range m.shards {
		sh.frames = make(map[PageID]*mframe, sh.cap)
		sh.lru.Init()
	}
}

// pinned counts the shard's pinned frames; the schedule keeps it below
// cap so that no step exhausts a shard.
func (sh *mshard) pinned() int {
	n := 0
	for _, f := range sh.frames {
		if f.pins > 0 {
			n++
		}
	}
	return n
}

// heldPin is one outstanding pin of the real pager, kept as method values
// so the test does not name the handle's type.
type heldPin struct {
	id     PageID
	data   func() []byte
	dirty  func()
	unpin  func()
	shardI int
}

// writeStamp writes (and stampOf reads back) a page's expected content: the
// stamp at both ends of the page, so a short read or a half-recycled
// buffer shows.
func writeStamp(d []byte, v uint64) {
	binary.LittleEndian.PutUint64(d[0:], v)
	binary.LittleEndian.PutUint64(d[PageSize-8:], v)
}

func stampOf(d []byte) (uint64, bool) {
	a, b := binary.LittleEndian.Uint64(d[0:]), binary.LittleEndian.Uint64(d[PageSize-8:])
	return a, a == b
}

func TestReplacementMatchesModel(t *testing.T) {
	// policy0 is LRU, the pool's one policy; the prefix keeps the
	// subtests' names stable.
	for _, shards := range []int{1, 4} {
		for _, capPages := range []int{4, 7, 64} {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("policy%d/shards%d/cap%d/seed%d", LRU, shards, capPages, seed)
				t.Run(name, func(t *testing.T) {
					runModelSchedule(t, shards, capPages, seed)
				})
			}
		}
	}
}

func runModelSchedule(t *testing.T, shards, capPages int, seed int64) {
	backend := NewMemBackend()
	p := NewSharded(backend, capPages, shards, LRU)
	defer p.Close()
	m := &model{}
	for _, sh := range p.pl.shards {
		m.shards = append(m.shards, &mshard{cap: sh.cap, frames: make(map[PageID]*mframe, sh.cap), lru: list.New()})
	}
	shardIndex := func(id PageID) int {
		sh := p.pl.shardOf(id)
		for i := range p.pl.shards {
			if p.pl.shards[i] == sh {
				return i
			}
		}
		panic("unreachable")
	}

	rng := rand.New(rand.NewSource(seed))
	content := make(map[PageID]uint64) // page -> stamp last written (0: never written, all zero)
	var held []heldPin
	var nextStamp uint64
	maxPages := 4 * capPages
	step := 0

	hold := func(id PageID, data func() []byte, dirty, unpin func()) {
		held = append(held, heldPin{id: id, data: data, dirty: dirty, unpin: unpin, shardI: shardIndex(id)})
	}
	release := func(i int) {
		h := held[i]
		h.unpin()
		m.unpin(m.shards[h.shardI], h.id)
		held = append(held[:i], held[i+1:]...)
	}
	check := func(op string) {
		t.Helper()
		got := p.Stats()
		got.UnpinErrors = 0
		if got != m.st {
			t.Fatalf("step %d (%s): stats %+v, model %+v", step, op, got, m.st)
		}
		for i, sh := range p.pl.shards {
			ms := m.shards[i]
			if len(sh.frames) != len(ms.frames) {
				t.Fatalf("step %d (%s): shard %d holds %d pages, model %d", step, op, i, len(sh.frames), len(ms.frames))
			}
			for id := range ms.frames {
				if _, ok := sh.frames[id]; !ok {
					t.Fatalf("step %d (%s): shard %d: page %d resident in the model only", step, op, i, id)
				}
			}
		}
		for _, h := range held {
			if v, ok := stampOf(h.data()); !ok || v != content[h.id] {
				t.Fatalf("step %d (%s): pinned page %d reads stamp %d (whole %v), want %d", step, op, h.id, v, ok, content[h.id])
			}
		}
		if u := p.Stats().UnpinErrors; u != 0 {
			t.Fatalf("step %d (%s): %d unpin errors on a correct schedule", step, op, u)
		}
	}

	for step = 0; step < 4000; step++ {
		r := rng.Intn(100)
		n := int(backend.NumPages())
		switch {
		case r < 45 && n > 0: // Get
			id := PageID(rng.Intn(n))
			ms := m.shards[shardIndex(id)]
			if _, resident := ms.frames[id]; !resident && ms.pinned() >= ms.cap-1 {
				continue
			}
			if len(held) >= capPages-1 {
				release(rng.Intn(len(held)))
			}
			fr, err := p.Get(id)
			if err != nil {
				t.Fatalf("step %d: Get(%d): %v", step, id, err)
			}
			m.get(ms, id)
			hold(id, fr.Data, fr.MarkDirty, fr.Unpin)
			check("get")
		case r < 70 && len(held) > 0: // Unpin
			release(rng.Intn(len(held)))
			check("unpin")
		case r < 80 && n < maxPages: // Allocate
			id := PageID(n)
			ms := m.shards[shardIndex(id)]
			if ms.pinned() >= ms.cap-1 {
				continue
			}
			if len(held) >= capPages-1 {
				release(rng.Intn(len(held)))
			}
			fr, err := p.Allocate()
			if err != nil {
				t.Fatalf("step %d: Allocate: %v", step, err)
			}
			if fr.ID() != id {
				t.Fatalf("step %d: allocated page %d, want %d", step, fr.ID(), id)
			}
			for i, b := range fr.Data() {
				if b != 0 {
					t.Fatalf("step %d: fresh page %d has byte %#x at %d", step, id, b, i)
				}
			}
			m.newFrame(ms, id).dirty = true
			hold(id, fr.Data, fr.MarkDirty, fr.Unpin)
			check("allocate")
		case r < 90 && len(held) > 0: // modify + MarkDirty
			h := held[rng.Intn(len(held))]
			nextStamp++
			writeStamp(h.data(), nextStamp)
			content[h.id] = nextStamp
			h.dirty()
			m.shards[h.shardI].frames[h.id].dirty = true
			check("markdirty")
		case r < 94: // FlushAll
			if err := p.FlushAll(); err != nil {
				t.Fatalf("step %d: FlushAll: %v", step, err)
			}
			m.flushAll()
			check("flushall")
		case r < 97: // DropCache with pins held must refuse and change nothing
			if len(held) == 0 {
				continue
			}
			if err := p.DropCache(); err == nil {
				t.Fatalf("step %d: DropCache succeeded with %d pins held", step, len(held))
			}
			check("dropcache-refused")
		default: // release everything, then DropCache
			for len(held) > 0 {
				release(len(held) - 1)
			}
			if err := p.DropCache(); err != nil {
				t.Fatalf("step %d: DropCache: %v", step, err)
			}
			m.dropCache()
			check("dropcache")
		}
	}

	// Everything written must have reached the backend once the pool is
	// flushed, whichever path (eviction, FlushAll, DropCache) carried it.
	for len(held) > 0 {
		release(len(held) - 1)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	for id := PageID(0); id < backend.NumPages(); id++ {
		if err := backend.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		if v, ok := stampOf(buf); !ok || v != content[id] {
			t.Fatalf("backend page %d holds stamp %d (whole %v), want %d", id, v, ok, content[id])
		}
	}
}
