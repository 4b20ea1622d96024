package tilecache_test

import (
	"math/rand"
	"testing"

	"dmesh"
	"dmesh/internal/geom"
	"dmesh/internal/tilecache"
)

// TestTileStatsAndDADeterministic replays the same seeded query
// sequence on two independently built stores and fresh caches and
// requires the full accounting — per-tile DA included, unlike the
// warm-store comparison in TestTileStatsDeterministic — to match
// exactly. Serial queries on a cold store must produce a fixed I/O
// schedule; a map-order leak anywhere under materialization shows up
// here as a per-tile DA diff.
func TestTileStatsAndDADeterministic(t *testing.T) {
	tr := terrain(t, "crater")
	run := func() ([]tilecache.TileStat, tilecache.Stats) {
		c, _ := newCache(t, tr, 0) // fresh store, caches dropped
		rng := rand.New(rand.NewSource(31))
		for i, r := range randRects(rng, 15) {
			e := tr.LODPercentile(0.6 + 0.4*rng.Float64())
			if _, _, err := c.Query(r, e); err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
		}
		return c.TileStats(), c.Stats()
	}
	ts1, st1 := run()
	ts2, st2 := run()
	if st1 != st2 {
		t.Errorf("cache stats differ across identical runs:\n  run1 %+v\n  run2 %+v", st1, st2)
	}
	if len(ts1) != len(ts2) {
		t.Fatalf("%d resident tiles vs %d across identical runs", len(ts1), len(ts2))
	}
	for i := range ts1 {
		if ts1[i] != ts2[i] {
			t.Errorf("tile %d accounting differs across identical runs:\n  run1 %+v\n  run2 %+v",
				i, ts1[i], ts2[i])
		}
	}
}

// TestQueryOnlyAccountingPinned replays a seeded query sequence under a
// budget of a few tiles and pins the outcome to constants: the resident
// byte count, the eviction count and the surviving key set. A cache that
// is only ever asked for stitched answers — a node serving /tile, /frame
// or /stream — holds no wire memo, so what it charges and what it evicts
// is exactly what TilePatch.Bytes and the GDSF order dictate; PatchWire
// must not move the values. They were re-pinned once, for a policy change:
// the GDSF cost term became TilePatch.FetchedRecords where it had been the
// materialization's disk accesses (38488 bytes, 26 evictions, five keys
// under that policy on a cold pool) — a different eviction order by
// design, and one that no longer depends on the pool: see
// TestEvictionIgnoresThePool.
func TestQueryOnlyAccountingPinned(t *testing.T) {
	const (
		budget        = 40000
		wantBytes     = 36192
		wantEvictions = 28
		wantKeys      = "0/0/0/1 2/3/1/7 "
	)
	tr := terrain(t, "crater")
	s := mustStore(t, tr)
	c, err := tr.NewTileCache(s, budget)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for i, r := range randRects(rng, 25) {
		e := tr.LODPercentile(0.6 + 0.4*rng.Float64())
		if _, _, err := c.Query(r, e); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	st := c.Stats()
	keys, sum := "", 0
	for _, ts := range c.TileStats() {
		keys += ts.Key.String() + " "
		p, _, err := c.Patch(ts.Key)
		if err != nil {
			t.Fatal(err)
		}
		if ts.Bytes != p.Bytes() {
			t.Errorf("tile %s charged %d bytes, its patch estimates %d", ts.Key, ts.Bytes, p.Bytes())
		}
		sum += ts.Bytes
	}
	if st.Bytes != sum {
		t.Errorf("resident bytes %d != sum of per-tile bytes %d", st.Bytes, sum)
	}
	if st.Bytes != wantBytes || st.Evictions != wantEvictions || keys != wantKeys {
		t.Errorf("accounting moved:\n got bytes %d evictions %d keys %q\nwant bytes %d evictions %d keys %q",
			st.Bytes, st.Evictions, keys, wantBytes, wantEvictions, wantKeys)
	}
}

// TestEvictionIgnoresThePool replays one seeded access history under a
// budget of a few tiles against three stores of the same terrain — a cold
// default pool, the same pool pre-warmed, and a four-page pool that keeps
// evicting — and requires the same keys to be resident after every query,
// the same eviction count and the same resident bytes. What a tile's
// materialization paid in disk accesses differs across the three (and is
// reported as such); what the cache keeps must not.
func TestEvictionIgnoresThePool(t *testing.T) {
	tr := terrain(t, "crater")
	type outcome struct {
		resident []string // resident keys after each query, in Key order
		stats    tilecache.Stats
	}
	run := func(pools dmesh.StorePools, warm bool) outcome {
		s, err := tr.NewDMStoreWithPools(pools)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.DropCaches(); err != nil {
			t.Fatal(err)
		}
		if warm {
			if _, err := s.ViewpointIndependent(geom.Rect{MinX: -1, MinY: -1, MaxX: 2, MaxY: 2}, 0); err != nil {
				t.Fatal(err)
			}
		}
		c, err := tr.NewTileCache(s, 40000)
		if err != nil {
			t.Fatal(err)
		}
		var out outcome
		rng := rand.New(rand.NewSource(31))
		for i, r := range randRects(rng, 25) {
			e := tr.LODPercentile(0.6 + 0.4*rng.Float64())
			if _, _, err := c.Query(r, e); err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
			keys := ""
			for _, ts := range c.TileStats() {
				keys += ts.Key.String() + " "
			}
			out.resident = append(out.resident, keys)
		}
		out.stats = c.Stats()
		return out
	}
	cold := run(dmesh.StorePools{}, false)
	if cold.stats.Evictions == 0 || cold.stats.MaterializeDA == 0 {
		t.Fatalf("the history must evict and the cold pool must pay: %+v", cold.stats)
	}
	for name, got := range map[string]outcome{
		"pre-warmed pool": run(dmesh.StorePools{}, true),
		"four-page pool":  run(dmesh.StorePools{Data: 4, Overflow: 4, Index: 4, IDIndex: 4}, false),
	} {
		if got.stats.MaterializeDA == cold.stats.MaterializeDA {
			t.Errorf("%s paid the cold pool's %d DA: the pools do not differ, the test proves nothing", name, cold.stats.MaterializeDA)
		}
		for i := range cold.resident {
			if got.resident[i] != cold.resident[i] {
				t.Fatalf("%s: resident after query %d = %q, cold pool %q", name, i, got.resident[i], cold.resident[i])
			}
		}
		if got.stats.Evictions != cold.stats.Evictions || got.stats.Bytes != cold.stats.Bytes {
			t.Errorf("%s: %d evictions, %d bytes; cold pool %d, %d", name,
				got.stats.Evictions, got.stats.Bytes, cold.stats.Evictions, cold.stats.Bytes)
		}
	}
}
