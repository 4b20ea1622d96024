package tilecache

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"dmesh/internal/dm"
	"dmesh/internal/geom"
	"dmesh/internal/obs"
)

// ErrInvalidKey marks a Patch request whose key does not address a cell
// of the cache's grid; servers answer it with a client error, not a
// retryable server fault.
var ErrInvalidKey = errors.New("tilecache: invalid tile key")

// Config parameterizes a Cache. The grid is the store's: its LOD ladder
// (dm.Store.Rungs), onto which requested LODs snap down, crossed with a
// quadtree of depth 4.
type Config struct {
	// Store is the Direct Mesh store tiles are materialized from.
	Store *dm.Store
	// MaxBytes is the byte budget for resident patches (estimated with
	// TilePatch.Bytes) and the encoded bodies memoized beside them (see
	// PatchWire). Default 64 MiB. Patches larger than the whole budget
	// are served but not retained.
	MaxBytes int
}

// Stats is a snapshot of the cache's counters.
//
// OutPairsKept and OutPairsDropped are the seam census over all
// materializations: a tile keeps only the out-pairs whose far endpoint is
// live at its rung of the store's ladder, and drops the rest.
type Stats struct {
	Queries         uint64 // Query calls
	TileLookups     uint64 // tile fetches (several per query)
	Hits            uint64 // lookups served from a resident patch
	Misses          uint64 // lookups that materialized the patch
	DedupedMisses   uint64 // lookups that waited on another's materialization
	Evictions       uint64 // patches evicted for space
	Invalidations   uint64 // InvalidateAll calls
	MaterializeDA   uint64 // disk accesses spent materializing, total
	OutPairsKept    uint64 // seam out-pairs the materialized patches hold
	OutPairsDropped uint64 // out-pairs dropped: far endpoint not live at the tile's rung
	Entries         int    // resident patches
	Bytes           int    // estimated resident bytes
	UnretainedOver  int    // patches served but too large to retain
}

// TileStat is the per-tile accounting view: how hot a resident tile is
// and what it cost to build.
type TileStat struct {
	Key   Key
	Hits  uint64 // lookups served by this resident patch
	DA    uint64 // disk accesses its materialization cost
	Bytes int
	Nodes int
}

// QueryStats describes how one Query was answered.
type QueryStats struct {
	SnappedE   float64 // the ladder rung actually served
	Level      int     // grid level chosen for the ROI
	Tiles      int     // tiles stitched
	ColdMisses int     // tiles this query materialized itself
	Deduped    int     // tiles this query waited on another for
	DA         uint64  // disk accesses charged to this query
	Fetched    int     // node records the ColdMisses materializations read
}

// entry is one resident patch plus its GreedyDual-Size-Frequency state.
type entry struct {
	patch *dm.TilePatch
	// wire memoizes dm.EncodeTilePatch(patch) once PatchWire has asked for
	// it; nil until then. Immutable once set, shared by all readers.
	wire  []byte
	bytes int // patch.Bytes() + len(wire)
	hits  uint64
	da    uint64  // disk accesses the materialization cost: reported, never weighed
	pri   float64 // GDSF priority; larger survives longer
}

// priority is the entry's GDSF priority at the current clock. The cost
// term is the records the tile's range query read (TilePatch.
// FetchedRecords): what rebuilding the tile takes, as a property of the
// tile. The disk accesses its materialization happened to pay are not
// that — they measure how warm the buffer pool was at the time, zero for
// every tile once the heap fits the pool — so eviction never reads them.
func (c *Cache) priority(ent *entry) float64 {
	return c.clockL + float64(ent.hits+1)*float64(ent.patch.FetchedRecords+1)/float64(ent.bytes)
}

// flight is an in-progress materialization other lookups wait on.
type flight struct {
	done  chan struct{}
	patch *dm.TilePatch
	da    uint64
	err   error
	gen   uint64 // cache generation when the flight started
}

// Cache is the shared mesh-tile cache. All methods are safe for
// concurrent use; materializations run outside the lock and are
// deduplicated per key (singleflight), so N concurrent requests for a
// cold tile cost one store query.
type Cache struct {
	store *dm.Store
	grid  *Grid

	maxBytes int

	mu      sync.Mutex
	entries map[Key]*entry
	flights map[Key]*flight
	bytes   int
	clockL  float64 // GDSF inflation clock: priority floor for new entries
	gen     uint64  // bumped by invalidation; stale flights don't insert
	stats   Stats
}

// New validates cfg and returns an empty cache.
func New(cfg Config) (*Cache, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("tilecache: nil store")
	}
	if cfg.MaxBytes == 0 {
		cfg.MaxBytes = 64 << 20
	}
	if cfg.MaxBytes < 0 {
		return nil, fmt.Errorf("tilecache: negative MaxBytes")
	}
	ds := cfg.Store.DataSpace()
	g, err := NewGrid(geom.Rect{MinX: ds.MinX, MinY: ds.MinY, MaxX: ds.MaxX, MaxY: ds.MaxY},
		defaultMaxLevel, cfg.Store.Rungs())
	if err != nil {
		return nil, err
	}
	c := &Cache{
		store:   cfg.Store,
		grid:    g,
		entries: make(map[Key]*entry),
		flights: make(map[Key]*flight),
	}
	c.maxBytes = cfg.MaxBytes
	return c, nil
}

// Grid returns the cache's quantization grid. A router partitioning this
// cache's key space builds its own Grid from the same parameters; the
// accessor is what in-process callers (and tests) compare against.
func (c *Cache) Grid() *Grid { return c.grid }

// SnapE maps a requested LOD to the ladder rung Query would serve.
func (c *Cache) SnapE(e float64) float64 {
	_, s := c.grid.SnapE(e)
	return s
}

// Query answers Q(r, e) from the cache: e snaps down onto the LOD
// ladder, the ROI quantizes onto the tile grid, missing tiles are
// materialized (once, however many requests race), and the covered
// patches are stitched and clipped to r. The result is exactly equal to
// a direct dm query at QueryStats.SnappedE.
func (c *Cache) Query(r geom.Rect, e float64) (*dm.Result, QueryStats, error) {
	return c.QueryTraced(r, e, nil)
}

// QueryTraced is Query emitting phase spans on tr (which may be nil).
// The cache's DA is counted through per-flight sessions the trace
// cannot sample, so the trace is charge-based: pass one built with a
// nil sampler (obs.NewTrace(nil)); each cold materialization charges
// its session total into its span, and the trace's accounted total
// equals QueryStats.DA exactly.
func (c *Cache) QueryTraced(r geom.Rect, e float64, tr *obs.Trace) (*dm.Result, QueryStats, error) {
	tr.Begin(obs.PhaseQuery)
	defer tr.End()
	band, snapped := c.grid.SnapE(e)
	level := c.grid.LevelFor(r)
	keys := c.grid.Cover(r, level, band)
	qs := QueryStats{SnappedE: snapped, Level: level, Tiles: len(keys)}

	c.mu.Lock()
	c.stats.Queries++
	c.mu.Unlock()

	patches := make([]*dm.TilePatch, len(keys))
	for i, k := range keys { // sorted cover order: deterministic I/O order
		p, _, st, err := c.tile(k, tr)
		qs.DA += st.DA // before the error check: a failed materialization still read pages
		if err != nil {
			return nil, qs, fmt.Errorf("tilecache: tile %+v: %w", k, err)
		}
		patches[i] = p
		if st.Cold {
			qs.ColdMisses++
			qs.Fetched += st.Fetched
		}
		if st.Deduped {
			qs.Deduped++
		}
	}
	res, err := dm.StitchTilesTraced(r, snapped, patches, tr)
	if err != nil {
		return nil, qs, err
	}
	return res, qs, nil
}

// tile returns the patch for k, materializing it if absent, and — on a
// hit — the entry's memoized wire body, if it has one. The returned DA is
// nonzero only for the lookup that ran the materialization (cold), so
// concurrent sessions' charges sum to the store's real I/O — and only
// that lookup's materialize span is charged, keeping trace totals
// consistent with the same accounting.
func (c *Cache) tile(k Key, tr *obs.Trace) (p *dm.TilePatch, wire []byte, st PatchStats, err error) {
	tr.Begin(obs.PhaseCache)
	defer tr.End()
	c.mu.Lock()
	c.stats.TileLookups++
	if ent, ok := c.entries[k]; ok {
		ent.hits++
		ent.pri = c.priority(ent)
		c.stats.Hits++
		p, wire = ent.patch, ent.wire
		c.mu.Unlock()
		return p, wire, PatchStats{}, nil
	}
	if f, ok := c.flights[k]; ok {
		c.stats.DedupedMisses++
		c.mu.Unlock()
		<-f.done
		return f.patch, nil, PatchStats{Deduped: true}, f.err
	}
	f := &flight{done: make(chan struct{}), gen: c.gen}
	c.flights[k] = f
	c.stats.Misses++
	c.mu.Unlock()

	tr.Begin(obs.PhaseMaterialize)
	sess := c.store.NewSession()
	f.patch, f.err = sess.MaterializeTile(c.grid.RectFor(k), c.grid.ladder[k.Band])
	f.da = sess.DiskAccesses()
	tr.AddDA(f.da)
	tr.End()

	c.mu.Lock()
	if c.flights[k] == f {
		delete(c.flights, k)
	}
	c.stats.MaterializeDA += f.da
	st = PatchStats{DA: f.da, Cold: true}
	if f.err == nil {
		st.Fetched = f.patch.FetchedRecords
		kept, dropped := f.patch.OutPairs()
		c.stats.OutPairsKept += uint64(kept)
		c.stats.OutPairsDropped += uint64(dropped)
		if f.gen == c.gen {
			c.insertLocked(k, f.patch, f.da)
		}
	}
	c.mu.Unlock()
	close(f.done)
	return f.patch, nil, st, f.err
}

// insertLocked adds a materialized patch under the byte budget, evicting
// lowest-priority entries first (GreedyDual-Size-Frequency: priority =
// clock + hits * cost/size with cost in fetched records — see priority —
// and the clock inflated to each eviction victim's priority so
// long-resident cold entries age out). Ties break on Key total order, and
// every input is a function of the tiles and the lookups, so eviction is
// deterministic given the access history, whatever the store's layout or
// buffer pool. da is only recorded, for TileStats.
func (c *Cache) insertLocked(k Key, p *dm.TilePatch, da uint64) {
	bytes := p.Bytes()
	if bytes > c.maxBytes {
		c.stats.UnretainedOver++
		return
	}
	c.makeRoomLocked(bytes)
	ent := &entry{patch: p, bytes: bytes, da: da}
	ent.pri = c.priority(ent)
	c.entries[k] = ent
	c.bytes += bytes
}

// makeRoomLocked evicts lowest-priority entries until need more bytes fit
// under the budget (or nothing is left to evict).
func (c *Cache) makeRoomLocked(need int) {
	for c.bytes+need > c.maxBytes && len(c.entries) > 0 {
		var victim Key
		var vent *entry
		for ck, ce := range c.entries {
			if vent == nil || ce.pri < vent.pri || (ce.pri == vent.pri && ck.Less(victim)) {
				victim, vent = ck, ce
			}
		}
		if vent.pri > c.clockL {
			c.clockL = vent.pri
		}
		c.bytes -= vent.bytes
		delete(c.entries, victim)
		c.stats.Evictions++
	}
}

// InvalidateAll drops every resident tile and prevents in-flight
// materializations started before the call from being retained.
func (c *Cache) InvalidateAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	c.stats.Invalidations++
	c.entries = make(map[Key]*entry)
	c.bytes = 0
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = len(c.entries)
	st.Bytes = c.bytes
	return st
}

// TileStats returns the per-tile accounting for every resident patch, in
// Key total order.
func (c *Cache) TileStats() []TileStat {
	c.mu.Lock()
	out := make([]TileStat, 0, len(c.entries))
	for k, ent := range c.entries {
		out = append(out, TileStat{
			Key: k, Hits: ent.hits, DA: ent.da,
			Bytes: ent.bytes, Nodes: ent.patch.NumNodes(),
		})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key.Less(out[j].Key) })
	return out
}

// PatchStats describes how one Patch lookup was answered.
type PatchStats struct {
	// DA is the disk accesses charged to this lookup: nonzero only when
	// this lookup ran the materialization itself (Cold).
	DA uint64
	// Cold is set when this lookup materialized the tile.
	Cold bool
	// Deduped is set when this lookup waited on another's materialization.
	Deduped bool
	// Fetched is the node records the materialization read (Cold only).
	Fetched int
}

// Patch returns the materialized patch for one tile key — the single-tile
// entry point a cluster shard serves remote fetches from. The key must
// address a cell of the cache's grid; the patch is materialized on a miss
// (deduplicated like Query's lookups) and shares the cache's eviction and
// accounting machinery, so remotely served tiles rank in TileStats and
// TopTiles alongside locally stitched ones.
func (c *Cache) Patch(k Key) (*dm.TilePatch, PatchStats, error) {
	p, _, st, err := c.patch(k, nil)
	return p, st, err
}

// patch is the validated single-tile lookup behind Patch and PatchWire.
// It emits phase spans on tr (which may be nil): a root PhaseQuery span
// over the lookup, with the same cache-lookup / materialize children
// QueryTraced records. Like QueryTraced the trace must be charge-based
// (nil sampler); its accounted total equals PatchStats.DA exactly — also
// when the materialization fails, so the caller can account the pages a
// failed lookup read.
func (c *Cache) patch(k Key, tr *obs.Trace) (*dm.TilePatch, []byte, PatchStats, error) {
	if !c.grid.ValidKey(k) {
		return nil, nil, PatchStats{}, fmt.Errorf("tilecache: key %v outside grid (max level %d, %d ladder rungs): %w",
			k, c.grid.maxLevel, len(c.grid.ladder), ErrInvalidKey)
	}
	tr.Begin(obs.PhaseQuery)
	defer tr.End()
	p, wire, st, err := c.tile(k, tr)
	if err != nil {
		return nil, nil, st, fmt.Errorf("tilecache: tile %+v: %w", k, err)
	}
	return p, wire, st, nil
}

// PatchWire is Patch returning the tile in its wire encoding
// (dm.EncodeTilePatch) — what a shard writes to a /patch response — and
// recording the lookup's phase spans on tr (which may be nil). A
// resident tile's body is encoded the first time it is asked for and
// memoized on the entry, so every later hit is a slice hand-off: callers
// share the returned bytes and must not modify them. The memo is lazy (a
// cache never asked for wire bodies holds none) and charged to MaxBytes:
// publishing it grows the entry by len(body), evicting lower-priority
// tiles if the budget requires, and it leaves with the entry on eviction
// or invalidation. A patch the cache does not retain is encoded per call.
func (c *Cache) PatchWire(k Key, tr *obs.Trace) ([]byte, PatchStats, error) {
	p, wire, st, err := c.patch(k, tr)
	if err != nil || wire != nil {
		return wire, st, err
	}
	wire = dm.EncodeTilePatch(p) // outside the lock; racing first requests each encode, one publishes
	c.mu.Lock()
	defer c.mu.Unlock()
	ent := c.entries[k]
	if ent == nil || ent.patch != p {
		return wire, st, nil // unretained, evicted or invalidated meanwhile
	}
	if ent.wire != nil {
		return ent.wire, st, nil
	}
	c.makeRoomLocked(len(wire))
	if c.entries[k] == ent && c.bytes+len(wire) <= c.maxBytes {
		// The memo outlives this request: keep an exact-size copy, so the
		// bytes charged are the bytes held.
		ent.wire = append([]byte(nil), wire...)
		ent.bytes += len(wire)
		c.bytes += len(wire)
	}
	return wire, st, nil
}

// TopK ranks tile stats by hit count, hottest first, with Key total-order
// tie-breaks, and returns at most k entries (k <= 0 means all). The input
// is not mutated. The ranking is the cluster's replication policy: given
// the same stats, every router computes the same hot set, so replica
// placement is deterministic.
func TopK(stats []TileStat, k int) []TileStat {
	out := append([]TileStat(nil), stats...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hits != out[j].Hits {
			return out[i].Hits > out[j].Hits
		}
		return out[i].Key.Less(out[j].Key)
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// TopTiles returns the k hottest resident tiles (TopK over TileStats).
func (c *Cache) TopTiles(k int) []TileStat {
	return TopK(c.TileStats(), k)
}
