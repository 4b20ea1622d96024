package tilecache_test

import (
	"math/rand"
	"testing"

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
// is exactly what TilePatch.Bytes and the GDSF order dictate; the values
// were recorded before PatchWire existed and must not move with it.
func TestQueryOnlyAccountingPinned(t *testing.T) {
	const (
		budget        = 40000
		wantBytes     = 38488
		wantEvictions = 26
		wantKeys      = "0/0/0/1 0/0/0/6 2/3/0/7 2/3/1/7 2/3/3/1 "
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
