package tilecache_test

// External test package: it exercises the cache through the same
// construction path real callers use (the dmesh facade builds terrains
// and stores), which the in-package tests cannot import without a cycle.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"dmesh"
	"dmesh/internal/dm"
	"dmesh/internal/geom"
	"dmesh/internal/tilecache"
)

var (
	terrainOnce sync.Once
	terrains    map[string]*dmesh.Terrain
)

// terrain memoizes the two small test terrains; simplification dominates
// test time, so every test shares them (stores are built per test).
func terrain(t *testing.T, name string) *dmesh.Terrain {
	t.Helper()
	terrainOnce.Do(func() {
		terrains = make(map[string]*dmesh.Terrain)
		for _, n := range []string{"highland", "crater"} {
			tr, err := dmesh.Build(dmesh.Config{Dataset: n, Size: 17, Seed: 7})
			if err != nil {
				panic(err)
			}
			terrains[n] = tr
		}
	})
	return terrains[name]
}

func newCache(t *testing.T, tr *dmesh.Terrain, maxBytes int) (*tilecache.Cache, *dmesh.DMStore) {
	t.Helper()
	s, err := tr.NewDMStore()
	if err != nil {
		t.Fatal(err)
	}
	s.DropCaches() // building leaves the pool warm; materializations must pay
	c, err := tr.NewTileCache(s, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return c, s
}

// sameMesh compares two results as vertex/edge/triangle sets (slice
// order is unspecified).
func sameMesh(t *testing.T, label string, got, want *dm.Result) {
	t.Helper()
	if len(got.Vertices) != len(want.Vertices) {
		t.Fatalf("%s: %d vertices, want %d", label, len(got.Vertices), len(want.Vertices))
	}
	for id, p := range want.Vertices {
		if gp, ok := got.Vertices[id]; !ok || gp != p {
			t.Fatalf("%s: vertex %d missing or misplaced", label, id)
		}
	}
	edgeSet := func(es [][2]int64) map[[2]int64]struct{} {
		m := make(map[[2]int64]struct{}, len(es))
		for _, e := range es {
			if e[0] > e[1] {
				e[0], e[1] = e[1], e[0]
			}
			m[e] = struct{}{}
		}
		return m
	}
	ge, we := edgeSet(got.Edges), edgeSet(want.Edges)
	if len(ge) != len(we) {
		t.Fatalf("%s: %d edges, want %d", label, len(ge), len(we))
	}
	for e := range we {
		if _, ok := ge[e]; !ok {
			t.Fatalf("%s: edge %v missing", label, e)
		}
	}
	triSet := func(ts []geom.Triangle) map[geom.Triangle]struct{} {
		m := make(map[geom.Triangle]struct{}, len(ts))
		for _, tr := range ts {
			m[tr.Canon()] = struct{}{}
		}
		return m
	}
	gt, wt := triSet(got.Triangles), triSet(want.Triangles)
	if len(gt) != len(wt) {
		t.Fatalf("%s: %d triangles, want %d", label, len(gt), len(wt))
	}
	for tr := range wt {
		if _, ok := gt[tr]; !ok {
			t.Fatalf("%s: triangle %v missing", label, tr)
		}
	}
}

func randRects(rng *rand.Rand, n int) []geom.Rect {
	out := make([]geom.Rect, n)
	for i := range out {
		w := 0.05 + rng.Float64()*0.7
		h := 0.05 + rng.Float64()*0.7
		x := rng.Float64() * (1 - w)
		y := rng.Float64() * (1 - h)
		out[i] = geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
	}
	return out
}

// TestQueryExactAgainstDirect is the subsystem's acceptance property:
// cached, stitched answers are exactly equal to direct dm queries at the
// snapped LOD, over randomized ROIs and LODs on both datasets — with
// repeats so later queries are answered from (partially) warm tiles.
func TestQueryExactAgainstDirect(t *testing.T) {
	for _, name := range []string{"highland", "crater"} {
		tr := terrain(t, name)
		c, s := newCache(t, tr, 0)
		rng := rand.New(rand.NewSource(11))
		rects := randRects(rng, 20)
		edge := []geom.Rect{
			{MinX: 0.25, MinY: 0.25, MaxX: 0.75, MaxY: 0.75}, // tile-aligned
			{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1},             // whole space
			{MinX: 0.5, MinY: 0.5, MaxX: 0.5, MaxY: 0.5},     // zero-area
			{MinX: -0.4, MinY: 0.1, MaxX: 1.4, MaxY: 0.3},    // past the data space
		}
		rects = append(rects, edge...)
		for i, r := range rects {
			e := tr.LODPercentile(0.45 + 0.55*rng.Float64())
			res, qs, err := c.Query(r, e)
			if err != nil {
				t.Fatalf("%s[%d]: %v", name, i, err)
			}
			want, err := s.ViewpointIndependent(r, qs.SnappedE)
			if err != nil {
				t.Fatal(err)
			}
			sameMesh(t, fmt.Sprintf("%s[%d]", name, i), res, want)
		}
		st := c.Stats()
		if st.Hits == 0 {
			t.Errorf("%s: no tile hits across %d overlapping queries", name, len(rects))
		}
		if st.Misses == 0 || st.MaterializeDA == 0 {
			t.Errorf("%s: implausible stats %+v", name, st)
		}
	}
}

// TestQueryExactUnderEviction squeezes the byte budget so tiles are
// continually evicted and re-materialized; answers must stay exact and
// eviction must actually happen.
func TestQueryExactUnderEviction(t *testing.T) {
	tr := terrain(t, "highland")
	big, s := newCache(t, tr, 0)
	// Size the budget at roughly two tiles so most queries evict.
	probe, _, err := big.Query(geom.Rect{MinX: 0, MinY: 0, MaxX: 0.45, MaxY: 0.45}, tr.LODPercentile(0.9))
	if err != nil || len(probe.Vertices) == 0 {
		t.Fatalf("probe query failed: %v", err)
	}
	budget := 0
	for _, ts := range big.TileStats() {
		budget += ts.Bytes
	}
	budget = budget/len(big.TileStats())*2 + 1
	c, err := tr.NewTileCache(s, budget)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for i, r := range randRects(rng, 30) {
		e := tr.LODPercentile(0.6 + 0.4*rng.Float64())
		res, qs, err := c.Query(r, e)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		want, err := s.ViewpointIndependent(r, qs.SnappedE)
		if err != nil {
			t.Fatal(err)
		}
		sameMesh(t, fmt.Sprintf("evict[%d]", i), res, want)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("budget %d bytes never evicted: %+v", budget, st)
	}
	if st.Bytes > budget {
		t.Fatalf("resident %d bytes exceeds budget %d", st.Bytes, budget)
	}
}

// TestConcurrentSingleflight hammers one cold ROI from many goroutines:
// every tile must be materialized exactly once, the rest of the lookups
// dedup onto the flight, and all results agree. Run under -race in CI.
func TestConcurrentSingleflight(t *testing.T) {
	tr := terrain(t, "crater")
	c, s := newCache(t, tr, 0)
	r := geom.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.6, MaxY: 0.55}
	e := tr.LODPercentile(0.9)

	const clients = 16
	results := make([]*dm.Result, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _, err := c.Query(r, e)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()

	want, err := s.ViewpointIndependent(r, c.SnapE(e))
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res == nil {
			t.Fatal("missing result")
		}
		sameMesh(t, fmt.Sprintf("client[%d]", i), res, want)
	}
	st := c.Stats()
	tiles := len(c.TileStats())
	if int(st.Misses) != tiles {
		t.Errorf("%d misses for %d distinct tiles (every tile must be materialized exactly once)", st.Misses, tiles)
	}
	if st.DedupedMisses+st.Hits != uint64(clients*tiles)-st.Misses {
		t.Errorf("lookup accounting off: %+v for %d clients x %d tiles", st, clients, tiles)
	}
}

// TestConcurrentMixedWorkload runs racing queries over random ROIs with
// occasional invalidations — primarily a -race exerciser, with exactness
// re-checked after the dust settles.
func TestConcurrentMixedWorkload(t *testing.T) {
	tr := terrain(t, "highland")
	c, s := newCache(t, tr, 1<<18) // small budget: evictions race too
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i, r := range randRects(rng, 10) {
				e := tr.LODPercentile(0.5 + 0.5*rng.Float64())
				if _, _, err := c.Query(r, e); err != nil {
					t.Errorf("g%d q%d: %v", g, i, err)
					return
				}
				if i%7 == 3 {
					c.InvalidateAll()
				}
			}
		}(g)
	}
	wg.Wait()
	r := geom.Rect{MinX: 0.1, MinY: 0.3, MaxX: 0.8, MaxY: 0.9}
	res, qs, err := c.Query(r, tr.LODPercentile(0.8))
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.ViewpointIndependent(r, qs.SnappedE)
	if err != nil {
		t.Fatal(err)
	}
	sameMesh(t, "after races", res, want)
}

// TestInvalidate drops every tile and verifies re-materialization stays
// exact and the counters move.
func TestInvalidate(t *testing.T) {
	tr := terrain(t, "highland")
	c, s := newCache(t, tr, 0)
	r := geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.9, MaxY: 0.9}
	e := tr.LODPercentile(0.9)
	if _, _, err := c.Query(r, e); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	if before.Entries == 0 {
		t.Fatal("nothing cached")
	}
	c.InvalidateAll()
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Invalidations != before.Invalidations+1 {
		t.Fatalf("InvalidateAll left %d entries / %d bytes, %d invalidations", st.Entries, st.Bytes, st.Invalidations)
	}
	res, qs, err := c.Query(r, e)
	if err != nil {
		t.Fatal(err)
	}
	if qs.ColdMisses == 0 {
		t.Error("re-query after invalidate should re-materialize")
	}
	want, err := s.ViewpointIndependent(r, qs.SnappedE)
	if err != nil {
		t.Fatal(err)
	}
	sameMesh(t, "after invalidate", res, want)
}

// TestTileStatsDeterministic checks the accounting view: sorted keys,
// hit counts that add up, per-tile DA that sums to the total.
func TestTileStatsDeterministic(t *testing.T) {
	tr := terrain(t, "highland")
	c, _ := newCache(t, tr, 0)
	r := geom.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.7, MaxY: 0.7}
	e := tr.LODPercentile(0.95)
	for i := 0; i < 3; i++ {
		if _, _, err := c.Query(r, e); err != nil {
			t.Fatal(err)
		}
	}
	ts := c.TileStats()
	if len(ts) == 0 {
		t.Fatal("no resident tiles")
	}
	if !sort.SliceIsSorted(ts, func(i, j int) bool { return ts[i].Key.Less(ts[j].Key) }) {
		t.Fatal("TileStats not in key order")
	}
	var hits, da uint64
	for _, s := range ts {
		hits += s.Hits
		da += s.DA
	}
	st := c.Stats()
	if hits != st.Hits {
		t.Errorf("per-tile hits %d != total hits %d", hits, st.Hits)
	}
	if da != st.MaterializeDA {
		t.Errorf("per-tile DA %d != total materialize DA %d", da, st.MaterializeDA)
	}
	// Repeating the same query pattern on a fresh cache over the same
	// store reproduces the same per-tile accounting (determinism).
	c2, err := tr.NewTileCache(mustStore(t, tr), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := c2.Query(r, e); err != nil {
			t.Fatal(err)
		}
	}
	ts2 := c2.TileStats()
	if len(ts2) != len(ts) {
		t.Fatalf("fresh cache has %d tiles, want %d", len(ts2), len(ts))
	}
	for i := range ts {
		if ts[i].Key != ts2[i].Key || ts[i].Hits != ts2[i].Hits || ts[i].Nodes != ts2[i].Nodes {
			t.Errorf("tile %d differs across identical runs: %+v vs %+v", i, ts[i], ts2[i])
		}
	}
}

func mustStore(t *testing.T, tr *dmesh.Terrain) *dmesh.DMStore {
	t.Helper()
	s, err := tr.NewDMStore()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestConfigValidation covers New's error paths; the grid's are NewGrid's
// (TestNewGridRejectsWhatItCannotAddress).
func TestConfigValidation(t *testing.T) {
	tr := terrain(t, "highland")
	s := mustStore(t, tr)
	if _, err := tilecache.New(tilecache.Config{Store: nil}); err == nil {
		t.Error("nil store accepted")
	}
	if _, err := tilecache.New(tilecache.Config{Store: s, MaxBytes: -1}); err == nil {
		t.Error("negative MaxBytes accepted")
	}
}

// TestPatchByKey drives the single-tile entry point the cluster shards
// serve: a cold Patch materializes and charges DA, a warm Patch is free,
// the patch matches what a Query of the same footprint would stitch from,
// and invalid keys are rejected without touching the store.
func TestPatchByKey(t *testing.T) {
	tr := terrain(t, "highland")
	c, s := newCache(t, tr, 0)
	g := c.Grid()
	e := tr.LODPercentile(0.9)
	band, snapped := g.SnapE(e)
	k := tilecache.Key{Level: 1, IX: 0, IY: 1, Band: band}

	p, st, err := c.Patch(k)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cold || st.DA == 0 {
		t.Fatalf("cold Patch: stats %+v, want cold with nonzero DA", st)
	}
	if p.E != snapped {
		t.Fatalf("patch E = %g, want snapped %g", p.E, snapped)
	}
	if p.Rect != g.RectFor(k) {
		t.Fatalf("patch footprint %v, want %v", p.Rect, g.RectFor(k))
	}

	p2, st2, err := c.Patch(k)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p {
		t.Error("warm Patch returned a different patch instance")
	}
	if st2.Cold || st2.DA != 0 {
		t.Errorf("warm Patch: stats %+v, want hit with zero DA", st2)
	}

	// The patch is the exact answer to the footprint query.
	want, err := s.ViewpointIndependent(g.RectFor(k), snapped)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Nodes) != len(want.Vertices) {
		t.Errorf("patch has %d nodes, direct query has %d vertices", len(p.Nodes), len(want.Vertices))
	}

	for _, bad := range []tilecache.Key{
		{Level: 99, IX: 0, IY: 0, Band: 0},
		{Level: 1, IX: 2, IY: 0, Band: 0},
		{Level: 1, IX: 0, IY: 0, Band: 99},
	} {
		if _, _, err := c.Patch(bad); err == nil {
			t.Errorf("Patch(%v) accepted an invalid key", bad)
		}
	}

	// Patch lookups feed the same accounting as Query lookups: the key is
	// resident and ranked.
	top := c.TopTiles(1)
	if len(top) != 1 || top[0].Key != k {
		t.Errorf("TopTiles(1) = %+v, want the patched key %v first", top, k)
	}
}

// TestTopTilesDeterministic re-runs an access pattern on a fresh cache
// and store; the hot ranking must come out identical (the cluster's
// replication policy depends on it).
func TestTopTilesDeterministic(t *testing.T) {
	tr := terrain(t, "highland")
	run := func() []tilecache.TileStat {
		c, _ := newCache(t, tr, 0)
		e := tr.LODPercentile(0.9)
		rois := []geom.Rect{
			{MinX: 0.1, MinY: 0.1, MaxX: 0.45, MaxY: 0.45},
			{MinX: 0.1, MinY: 0.1, MaxX: 0.45, MaxY: 0.45},
			{MinX: 0.55, MinY: 0.55, MaxX: 0.9, MaxY: 0.9},
			{MinX: 0.2, MinY: 0.6, MaxX: 0.4, MaxY: 0.9},
		}
		for _, r := range rois {
			if _, _, err := c.Query(r, e); err != nil {
				t.Fatal(err)
			}
		}
		return c.TopTiles(5)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("rankings differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Hits != b[i].Hits {
			t.Errorf("rank %d differs across identical runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestOutPairCensus: the cache counts the seam out-pairs its tiles kept and
// the ones materialization dropped, once per materialization, and the
// tiles, on the store's ladder, drop most of them.
func TestOutPairCensus(t *testing.T) {
	tr := terrain(t, "highland")
	c, s := newCache(t, tr, 0)
	if !slices.Equal(c.Grid().Ladder(), s.Rungs()) || !slices.Equal(c.Grid().Ladder(), tr.DefaultLODLadder()) {
		t.Fatalf("cache ladder %v, store's %v, terrain's %v: want one ladder", c.Grid().Ladder(), s.Rungs(), tr.DefaultLODLadder())
	}
	r := geom.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.6, MaxY: 0.6} // four level-1 tiles
	// The second query hits: nothing more is counted.
	for i := 0; i < 2; i++ {
		res, qs, err := c.Query(r, tr.LODPercentile(0.85))
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.ViewpointIndependent(r, qs.SnappedE)
		if err != nil {
			t.Fatal(err)
		}
		sameMesh(t, "query", res, want)
	}
	var kept, dropped uint64
	for _, ts := range c.TileStats() {
		p, _, err := c.Patch(ts.Key)
		if err != nil {
			t.Fatal(err)
		}
		k, d := p.OutPairs()
		kept, dropped = kept+uint64(k), dropped+uint64(d)
	}
	st := c.Stats()
	if st.OutPairsKept != kept || st.OutPairsDropped != dropped || kept == 0 {
		t.Errorf("stats say %d kept, %d dropped; the %d resident patches %d and %d",
			st.OutPairsKept, st.OutPairsDropped, st.Entries, kept, dropped)
	}
	if dropped < 2*kept { // 90 % even on this 17² terrain
		t.Errorf("kept %d of %d out-pairs; expected a small fraction", kept, kept+dropped)
	}
}
