package cluster

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"dmesh/internal/dm"
	"dmesh/internal/geom"
	"dmesh/internal/obs"
	"dmesh/internal/tilecache"
	"dmesh/internal/wire"
)

// Config parameterizes a Router.
type Config struct {
	// Shards are the shard base URLs ("http://host:port").
	Shards []string
	// IDs are the shards' stable ring identities, parallel to Shards.
	// Placement hashes the identity, not the address, so re-homing a
	// shard (new port, new host) never reshuffles the key space; every
	// router fronting the same identity list computes the same
	// placement.
	IDs []string
	// Grid must equal every shard's tile grid (same data rect, max
	// level, LOD ladder); the router quantizes queries with it exactly
	// like a local tile cache would. Shards publish theirs at /gridinfo.
	Grid *tilecache.Grid
	// Client issues the shard requests. Nil selects a client with a 30s
	// timeout over a dedicated transport whose idle-connection pool is
	// sized for fan-out: the default transport keeps only 2 idle
	// connections per host, so a multi-tile burst against few shards
	// would discard and re-dial almost every connection it opens.
	Client *http.Client
}

// QueryStats describes how one fan-out query was answered.
type QueryStats struct {
	SnappedE   float64 // the ladder rung actually served
	Level      int     // tile-grid level of the cover
	Tiles      int     // tiles fanned out to
	DA         uint64  // shard store disk accesses charged to this query
	Attempts   int     // shard requests issued (>= Tiles)
	Redirected int     // tiles served by a later candidate after a failure

	// TraceDA is the disk-access total the shards' spliced wire traces
	// account for themselves — zero on untraced queries. The cross-hop
	// invariant of a traced query is DA == TraceDA == the root trace's
	// CheckTotal figure: every header-reported access appears in exactly
	// one remote phase span.
	TraceDA uint64
}

// Router is the stdlib-only front tier: it consistent-hashes canonical
// tile keys onto shards, fans multi-tile ROI queries out, stitches the
// wire patches exactly (dm.StitchTiles), retries replicas on shard
// failure, and replicates hot tiles via Rebalance. Safe for concurrent
// use.
type Router struct {
	ring   *Ring
	shards []string
	ids    []string
	grid   *tilecache.Grid
	ladder []float64 // grid.Ladder(), held once: the accessor copies
	client *http.Client

	reg        *obs.Registry
	mQueries   *obs.Counter
	mTiles     *obs.Counter
	mErrors    *obs.Counter
	mRedirects *obs.Counter
	mReplica   *obs.Counter
	hQueryDA   *obs.Histogram
	hQueryNs   *obs.Histogram
	hStreamNs  *obs.Histogram

	// hot is the replicated tile set from the last Rebalance: key ->
	// replica count R. Reads of a hot key rotate across its R ring
	// candidates (all warmed), spreading the skewed load that made the
	// tile hot in the first place.
	hotMu   sync.RWMutex
	hot     map[tilecache.Key]int
	hotSeq  map[tilecache.Key]*uint64
	hotSeqM sync.Mutex
}

// NewRouter builds a router over the shard list.
func NewRouter(cfg Config) (*Router, error) {
	if cfg.Grid == nil {
		return nil, fmt.Errorf("cluster: Config.Grid is required")
	}
	if len(cfg.IDs) != len(cfg.Shards) {
		return nil, fmt.Errorf("cluster: %d ring IDs for %d shards", len(cfg.IDs), len(cfg.Shards))
	}
	ring, err := NewRing(cfg.IDs)
	if err != nil {
		return nil, err
	}
	client := cfg.Client
	if client == nil {
		tr, _ := http.DefaultTransport.(*http.Transport)
		if tr != nil {
			tr = tr.Clone()
			tr.MaxIdleConns = 256
			tr.MaxIdleConnsPerHost = 64
		}
		client = &http.Client{Timeout: 30 * time.Second}
		if tr != nil {
			client.Transport = tr
		}
	}
	reg := obs.NewRegistry()
	rt := &Router{
		ring:   ring,
		shards: append([]string(nil), cfg.Shards...),
		ids:    append([]string(nil), cfg.IDs...),
		grid:   cfg.Grid,
		ladder: cfg.Grid.Ladder(),
		client: client,
		reg:    reg,
		hot:    make(map[tilecache.Key]int),
		hotSeq: make(map[tilecache.Key]*uint64),
	}
	rt.mQueries = reg.Counter("cluster_router_queries_total", "fan-out queries answered")
	rt.mTiles = reg.Counter("cluster_router_tiles_total", "per-tile shard requests that succeeded")
	rt.mErrors = reg.Counter("cluster_router_shard_errors_total", "failed shard attempts (transport error or non-200)")
	rt.mRedirects = reg.Counter("cluster_router_redirects_total", "tiles served by a later candidate after a shard failure")
	rt.mReplica = reg.Counter("cluster_router_replicated_tiles_total", "hot-tile replica warm-ups issued by Rebalance")
	rt.hQueryDA = reg.Histogram("cluster_router_query_disk_accesses", "shard disk accesses per fan-out query")
	rt.hQueryNs = reg.Histogram("cluster_router_query_latency_nanos", "fan-out query latency in nanoseconds")
	rt.hStreamNs = reg.Histogram("cluster_router_stream_latency_nanos", "progressive stream latency in nanoseconds, all rungs")
	return rt, nil
}

// Ring returns the router's placement ring.
func (rt *Router) Ring() *Ring { return rt.ring }

// Registry returns the registry carrying the router metrics.
func (rt *Router) Registry() *obs.Registry { return rt.reg }

// Grid returns the router's quantization grid.
func (rt *Router) Grid() *tilecache.Grid { return rt.grid }

// candidates returns the shard order to try for a key. A key in the hot
// set rotates its starting replica (all R are warmed by Rebalance);
// everything else starts at the primary. The full successor order
// follows in both cases, so the failover path is always complete.
func (rt *Router) candidates(k tilecache.Key) []int {
	order := rt.ring.Order(k.String())
	rt.hotMu.RLock()
	r := rt.hot[k]
	var seq *uint64
	if r > 1 {
		seq = rt.hotSeq[k]
	}
	rt.hotMu.RUnlock()
	if r <= 1 || seq == nil || r > len(order) {
		return order
	}
	rt.hotSeqM.Lock()
	start := int(*seq % uint64(r))
	*seq++
	rt.hotSeqM.Unlock()
	if start == 0 {
		return order
	}
	rot := make([]int, 0, len(order))
	rot = append(rot, order[start])
	for i, s := range order {
		if i != start {
			rot = append(rot, s)
		}
	}
	return rot
}

// tileFetch is one tile's fan-out outcome: the decoded patch, the
// winning shard's accounting, and — on traced queries — the shard's
// wire trace plus the hop's timing, recorded with the goroutine-safe
// Trace.Now so the query goroutine can splice it after the fan-out
// rejoins.
type tileFetch struct {
	tp         *dm.TilePatch
	da         uint64
	attempts   int
	redirected int
	wt         *obs.WireTrace
	start, dur time.Duration
	err        error
}

// maxAttempts bounds how many candidate shards one tile request tries
// before the query fails. Attempts walk the key's ring-successor order,
// so they land on the shards hot-tile replication warms.
const maxAttempts = 3

// fetchTile requests one tile from at most maxAttempts of its candidate
// shards in order, and decodes the wire patch. da is the shard
// store I/O reported for the winning attempt; redirected counts the
// failed attempts that preceded it. A non-nil tr asks the winning shard
// for its phase trace; only tr.Now is called here (fetchTile runs on
// fan-out goroutines, and Now is the one goroutine-safe Trace method).
func (rt *Router) fetchTile(k tilecache.Key, tr *obs.Trace) (f tileFetch) {
	cands := rt.candidates(k)
	if len(cands) > maxAttempts {
		cands = cands[:maxAttempts]
	}
	var lastErr error
	for i, shard := range cands {
		f.attempts++
		start := tr.Now()
		tp, da, wt, err := rt.getPatch(rt.shards[shard], k, tr != nil)
		lastErr = err
		if lastErr == nil {
			// Count every failed attempt that preceded the winner, not
			// just the fact that one happened: the accounting invariant is
			// attempts == tiles + redirects, and with two failures before
			// a success this tile contributes 3 attempts and 1 tile.
			if i > 0 {
				f.redirected = i
				rt.mRedirects.Add(uint64(i))
			}
			rt.mTiles.Inc()
			f.tp, f.da, f.wt = tp, da, wt
			f.start, f.dur = start, tr.Now()-start
			return f
		}
		rt.mErrors.Inc()
	}
	f.err = fmt.Errorf("cluster: tile %s failed on all %d candidates: %w", k, f.attempts, lastErr)
	return f
}

// patchBodies recycles the buffers getPatch reads /patch bodies into: a
// body is dead once DecodeTilePatchInto has copied out what the patch
// keeps. Only bodies with a declared length land in them (readBody), and a
// buffer goes back only once its body has decoded: a failed attempt's was
// sized by a length nothing verified. The pool holds about one buffer per
// getPatch that ran at once — a query's tiles times the queries in flight,
// two rungs' worth on a stream — each as large as the largest body it has
// held (at most maxShardBody), until two GC cycles pass without its use.
var patchBodies = sync.Pool{New: func() any { return new([]byte) }}

// decodedPatches recycles the patches getPatch decodes into. A patch
// belongs to its tileFetch until the query's stitch has returned — the
// Result copies every ID and position it keeps — and finish then hands it
// back (release); Rebalance hands its warm-up patches back at once. A
// failed attempt's patch is dropped, not returned, like its body. The pool
// holds about one patch per fetch in flight, its arrays as large as the
// largest tile decoded into them, until two GC cycles pass without use.
var decodedPatches = sync.Pool{New: func() any { return new(dm.TilePatch) }}

// getPatch issues one /patch request and decodes the body. Any
// transport error, non-200 status, truncated, over-long or over-limit
// body (readBody), or undecodable body is a failed attempt — the
// fail-stop model treats them all as "this shard cannot serve the tile
// right now", and fetchTile fails over to the next candidate. So is a
// body that decodes to another tile than k (a shard on a different grid
// or ladder, or answering the wrong key, would otherwise stitch into a
// silently wrong mesh), and a missing or unparsable X-DM-DA (the query's
// disk-access total is the sum of those headers). With traced set the
// shard is asked for its phase trace (trace=1) and a missing or corrupt
// X-DM-Trace header fails the attempt the same way: a traced query's
// accounting is part of its answer.
func (rt *Router) getPatch(base string, k tilecache.Key, traced bool) (*dm.TilePatch, uint64, *obs.WireTrace, error) {
	if !rt.grid.ValidKey(k) { // keys from /hottiles are a shard's word
		return nil, 0, nil, fmt.Errorf("cluster: tile %s outside the grid: %w", k, tilecache.ErrInvalidKey)
	}
	url := fmt.Sprintf("%s/patch?level=%d&ix=%d&iy=%d&band=%d", base, k.Level, k.IX, k.IY, k.Band)
	if traced {
		url += "&trace=1"
	}
	resp, err := rt.client.Get(url)
	if err != nil {
		return nil, 0, nil, err
	}
	buf := patchBodies.Get().(*[]byte)
	body, err := readBody(resp, url, buf)
	if err != nil {
		return nil, 0, nil, err
	}
	tp := decodedPatches.Get().(*dm.TilePatch)
	if err := dm.DecodeTilePatchInto(body, tp); err != nil {
		return nil, 0, nil, err
	}
	patchBodies.Put(buf) // tp holds copies: nothing points into the body
	want, wantE := rt.grid.RectFor(k), rt.ladder[k.Band]
	got := [5]float64{tp.Rect.MinX, tp.Rect.MinY, tp.Rect.MaxX, tp.Rect.MaxY, tp.E}
	for i, w := range [5]float64{want.MinX, want.MinY, want.MaxX, want.MaxY, wantE} {
		if math.Float64bits(got[i]) != math.Float64bits(w) {
			return nil, 0, nil, fmt.Errorf("cluster: %s: body is tile %v at LOD %g, want %v at LOD %g: %w",
				url, tp.Rect, tp.E, want, wantE, wire.ErrCorrupt)
		}
	}
	da, err := strconv.ParseUint(resp.Header.Get("X-DM-DA"), 10, 64)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("cluster: %s: bad X-DM-DA %q: %w", url, resp.Header.Get("X-DM-DA"), wire.ErrCorrupt)
	}
	var wt *obs.WireTrace
	if traced {
		raw, err := base64.StdEncoding.DecodeString(resp.Header.Get("X-DM-Trace"))
		if err != nil {
			return nil, 0, nil, fmt.Errorf("cluster: %s: undecodable X-DM-Trace: %v: %w", url, err, wire.ErrCorrupt)
		}
		if wt, err = obs.DecodeTraceWire(raw); err != nil {
			return nil, 0, nil, fmt.Errorf("cluster: %s: %w", url, err)
		}
	}
	return tp, da, wt, nil
}

// Query answers Q(r, e) through the cluster: snap e onto the ladder,
// cover r with canonical tiles, fetch each tile from its owner (replica
// on failure), stitch exactly. The result equals the single-node
// tilecache answer for the same query — byte for byte once encoded —
// because both sides stitch identical canonical patches.
func (rt *Router) Query(r geom.Rect, e float64) (*dm.Result, QueryStats, error) {
	return rt.QueryTraced(r, e, nil)
}

// QueryTraced is Query recording phase spans on tr (which may be nil).
// The router's trace must be charge-based (obs.NewTrace(nil)): the
// store I/O happens in other processes, so every disk access enters the
// trace through a PhaseShardHop splice — one per fetched tile, carrying
// the shard's X-DM-DA and, beneath it, the shard's own phase spans from
// the X-DM-Trace wire. The cross-hop invariant follows: the root trace
// passes CheckTotal(st.DA) exactly when no shard claims more in spans
// than in its header, and st.TraceDA == st.DA exactly when every shard
// accounts for all of it.
func (rt *Router) QueryTraced(r geom.Rect, e float64, tr *obs.Trace) (*dm.Result, QueryStats, error) {
	return rt.finish(rt.launch(r, e, tr), tr, nil)
}

// fanOut is one query's tile fetches, launched and not yet finished.
type fanOut struct {
	r     geom.Rect
	start time.Time
	st    QueryStats
	slots []tileFetch
	wg    sync.WaitGroup
}

// launch snaps e, covers r and starts one fetch goroutine per tile. The
// goroutines call only tr.Now, so the caller may go on using tr; it must
// finish or wait for the fan-out before it resets or reads tr.
func (rt *Router) launch(r geom.Rect, e float64, tr *obs.Trace) *fanOut {
	band, snapped := rt.grid.SnapE(e)
	level := rt.grid.LevelFor(r)
	keys := rt.grid.Cover(r, level, band)
	f := &fanOut{
		r:     r,
		start: time.Now(),
		st:    QueryStats{SnappedE: snapped, Level: level, Tiles: len(keys)},
		slots: make([]tileFetch, len(keys)),
	}
	f.wg.Add(len(keys))
	for i, k := range keys {
		go func() {
			defer f.wg.Done()
			f.slots[i] = rt.fetchTile(k, tr)
		}()
	}
	return f
}

// wait blocks until every fetch of f has returned; a nil f has none.
func (f *fanOut) wait() {
	if f != nil {
		f.wg.Wait()
	}
}

// release hands f's decoded patches back to decodedPatches once nothing
// reads them any more; f must have been waited for. A nil f has none.
func (f *fanOut) release() {
	if f == nil {
		return
	}
	for i := range f.slots {
		if tp := f.slots[i].tp; tp != nil {
			f.slots[i].tp = nil
			decodedPatches.Put(tp)
		}
	}
}

// finish answers a launched fan-out under one query span: it waits for
// the tiles, calls arrived (if not nil) — a stream launches its next rung
// there, so that the fetch overlaps this stitch — then splices the hops
// and stitches. A lookahead's hops may begin before the span does; the
// span's self time clips them (obs.Trace.cover). The tiles go back to
// decodedPatches on every return: the Result shares no memory with them.
func (rt *Router) finish(f *fanOut, tr *obs.Trace, arrived func()) (*dm.Result, QueryStats, error) {
	tr.Begin(obs.PhaseQuery)
	defer tr.End()
	f.wait()
	defer f.release()
	if arrived != nil {
		arrived()
	}

	// Splice after the barrier, in cover-key order: Trace methods other
	// than Now are not goroutine-safe, and the deterministic order keeps
	// traced span sequences reproducible however the fan-out raced.
	st := f.st
	tiles := make([]*dm.TilePatch, len(f.slots))
	for i := range f.slots {
		s := &f.slots[i]
		st.DA += s.da
		st.Attempts += s.attempts
		st.Redirected += s.redirected
		if s.err != nil {
			return nil, st, s.err
		}
		st.TraceDA += s.wt.TotalDA()
		tr.SpliceRemote(obs.PhaseShardHop, s.start, s.dur, s.da, s.wt)
		tiles[i] = s.tp
	}
	res, err := dm.StitchTilesTraced(f.r, st.SnappedE, tiles, tr)
	if err != nil {
		return nil, st, err
	}
	rt.mQueries.Inc()
	rt.hQueryDA.Observe(st.DA)
	rt.hQueryNs.Observe(uint64(time.Since(f.start)))
	return res, st, nil
}

// RebalanceStats summarizes one Rebalance pass.
type RebalanceStats struct {
	HotKeys    int    // distinct keys selected for replication
	Replicated int    // replica warm-ups issued (HotKeys x (R-1), minus failures)
	WarmDA     uint64 // shard disk accesses the warm-ups cost
	Failed     int    // warm-ups that failed (shard down); non-fatal
}

// Rebalance refreshes the hot-tile replica set: it pulls each shard's
// top-K tile stats (/hottiles), merges them into a global ranking —
// hits descending, Key total order on ties, so every router ranks
// identically — and warms the top keys onto their first R ring
// successors by fetching /patch there. Subsequent reads of a hot key
// rotate across its R candidates. R < 2 or K < 1 clears the hot set.
func (rt *Router) Rebalance(topK, replicas int) (RebalanceStats, error) {
	var st RebalanceStats
	if replicas > len(rt.shards) {
		replicas = len(rt.shards)
	}
	if topK < 1 || replicas < 2 {
		rt.hotMu.Lock()
		rt.hot = make(map[tilecache.Key]int)
		rt.hotSeq = make(map[tilecache.Key]*uint64)
		rt.hotMu.Unlock()
		return st, nil
	}

	// Global ranking: sum per-shard hits per key. Shards that fail to
	// answer just contribute nothing (their tiles stay primary-only).
	hits := make(map[tilecache.Key]uint64)
	for _, base := range rt.shards {
		top, err := rt.getHotTiles(base, topK)
		if err != nil {
			st.Failed++
			continue
		}
		for _, ht := range top {
			hits[ht.key] += ht.hits
		}
	}
	keys := make([]tilecache.Key, 0, len(hits))
	for k := range hits {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if hits[keys[i]] != hits[keys[j]] {
			return hits[keys[i]] > hits[keys[j]]
		}
		return keys[i].Less(keys[j])
	})
	if len(keys) > topK {
		keys = keys[:topK]
	}

	hot := make(map[tilecache.Key]int, len(keys))
	hotSeq := make(map[tilecache.Key]*uint64, len(keys))
	for _, k := range keys {
		order := rt.ring.Order(k.String())
		warmed := 1 // the primary already has it (it is where the hits happened)
		for _, shard := range order[1:replicas] {
			if tp, da, _, err := rt.getPatch(rt.shards[shard], k, false); err != nil {
				st.Failed++
			} else {
				decodedPatches.Put(tp) // the warm-up was the point, not the patch
				st.WarmDA += da
				st.Replicated++
				rt.mReplica.Inc()
				warmed++
			}
		}
		hot[k] = warmed
		hotSeq[k] = new(uint64)
	}
	st.HotKeys = len(keys)
	rt.hotMu.Lock()
	rt.hot = hot
	rt.hotSeq = hotSeq
	rt.hotMu.Unlock()
	return st, nil
}

type hotEntry struct {
	key  tilecache.Key
	hits uint64
}

func (rt *Router) getHotTiles(base string, n int) ([]hotEntry, error) {
	body, err := rt.scrape(fmt.Sprintf("%s/hottiles?n=%d", base, n))
	if err != nil {
		return nil, err
	}
	var raw []struct {
		Level int    `json:"level"`
		IX    int    `json:"ix"`
		IY    int    `json:"iy"`
		Band  int    `json:"band"`
		Hits  uint64 `json:"hits"`
	}
	if err := json.Unmarshal(body, &raw); err != nil {
		return nil, err
	}
	out := make([]hotEntry, 0, len(raw))
	for _, e := range raw {
		out = append(out, hotEntry{
			key:  tilecache.Key{Level: e.Level, IX: e.IX, IY: e.IY, Band: e.Band},
			hits: e.Hits,
		})
	}
	return out, nil
}
