package tilecache_test

import (
	"bytes"
	"sync"
	"testing"

	"dmesh/internal/dm"
	"dmesh/internal/tilecache"
)

// residentSum is Σ TileStats.Bytes — what Stats().Bytes must always equal.
func residentSum(c *tilecache.Cache) int {
	sum := 0
	for _, ts := range c.TileStats() {
		sum += ts.Bytes
	}
	return sum
}

// TestPatchWireMemo: many goroutines asking for one cold tile's wire body
// cost one materialization and get byte-identical bodies; the body is
// memoized once, charged to the budget by exactly its length, handed out
// without re-encoding afterwards, and released by invalidation.
func TestPatchWireMemo(t *testing.T) {
	tr := terrain(t, "highland")
	c, _ := newCache(t, tr, 0)
	band, _ := c.Grid().SnapE(tr.LODPercentile(0.9))
	k := tilecache.Key{Level: 1, IX: 1, IY: 0, Band: band}

	const n = 16
	bodies := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bodies[i], _, errs[i] = c.PatchWire(k, nil)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("PatchWire #%d: %v", i, err)
		}
	}
	p, _, err := c.Patch(k)
	if err != nil {
		t.Fatal(err)
	}
	want := dm.EncodeTilePatch(p)
	for i, b := range bodies {
		if !bytes.Equal(b, want) {
			t.Fatalf("body #%d differs from the patch's encoding", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("%d materializations for one key, want 1", st.Misses)
	}
	if st.Bytes != p.Bytes()+len(want) {
		t.Fatalf("resident bytes %d, want patch %d + memo %d", st.Bytes, p.Bytes(), len(want))
	}

	// Warm: the memo itself comes back — same backing array, no encode,
	// no allocation — and is not charged twice.
	w1, st1, err := c.PatchWire(k, nil)
	if err != nil || st1.Cold || st1.DA != 0 {
		t.Fatalf("warm PatchWire: stats %+v err %v", st1, err)
	}
	w2, _, _ := c.PatchWire(k, nil)
	if &w1[0] != &w2[0] {
		t.Error("warm PatchWire returned a fresh encoding, not the memo")
	}
	if allocs := testing.AllocsPerRun(20, func() { c.PatchWire(k, nil) }); allocs != 0 {
		t.Errorf("warm PatchWire allocates %.0f times per call, want 0", allocs)
	}
	if got := c.Stats().Bytes; got != st.Bytes {
		t.Errorf("resident bytes moved from %d to %d on warm hits", st.Bytes, got)
	}
	if ts := c.TileStats(); len(ts) != 1 || ts[0].Bytes != st.Bytes {
		t.Errorf("TileStats %+v, want the one tile at %d bytes", ts, st.Bytes)
	}

	c.InvalidateAll()
	if st := c.Stats(); st.Bytes != 0 || st.Entries != 0 {
		t.Fatalf("InvalidateAll left %d bytes in %d entries", st.Bytes, st.Entries)
	}
	// A handed-out body stays valid after its entry is gone.
	if !bytes.Equal(w1, want) {
		t.Error("memoized body changed after invalidation")
	}
}

// TestPatchWireBudget: the memo lives under MaxBytes like the patch it
// belongs to. Publishing one evicts lower-priority tiles when the budget
// requires it, eviction releases it, and a patch too large to retain is
// encoded per call with nothing charged.
func TestPatchWireBudget(t *testing.T) {
	tr := terrain(t, "highland")
	big, s := newCache(t, tr, 0)
	band, _ := big.Grid().SnapE(tr.LODPercentile(0.9))
	keys := []tilecache.Key{
		{Level: 1, IX: 0, IY: 0, Band: band},
		{Level: 1, IX: 1, IY: 0, Band: band},
		{Level: 1, IX: 0, IY: 1, Band: band},
		{Level: 1, IX: 1, IY: 1, Band: band},
	}
	patchBytes := make([]int, len(keys))
	for i, k := range keys {
		p, _, err := big.Patch(k)
		if err != nil {
			t.Fatal(err)
		}
		patchBytes[i] = p.Bytes()
	}

	// Exactly two patches fit; the memo for the first does not fit beside
	// them, so publishing it must evict.
	budget := patchBytes[0] + patchBytes[1]
	c, err := tr.NewTileCache(s, budget)
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string) {
		t.Helper()
		st := c.Stats()
		if st.Bytes > budget {
			t.Fatalf("%s: resident %d bytes exceeds budget %d", label, st.Bytes, budget)
		}
		if sum := residentSum(c); st.Bytes != sum {
			t.Fatalf("%s: resident bytes %d != sum of per-tile bytes %d", label, st.Bytes, sum)
		}
	}
	for _, k := range keys[:2] {
		if _, _, err := c.Patch(k); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Entries != 2 || st.Bytes != budget || st.Evictions != 0 {
		t.Fatalf("setup: %+v, want two entries filling the budget", st)
	}
	body, _, err := c.PatchWire(keys[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	check("after publishing a memo into a full cache")
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("memo of %d bytes published into a full cache without evicting: %+v", len(body), st)
	}

	// Walk the other tiles through until the memoized tile is evicted: its
	// memo must leave with it.
	for round := 0; round < 8; round++ {
		for _, k := range keys[1:] {
			if _, _, err := c.Patch(k); err != nil {
				t.Fatal(err)
			}
			check("churn")
		}
	}
	for _, ts := range c.TileStats() {
		if ts.Key == keys[0] {
			t.Fatalf("tile %s survived the churn; the test is not exercising eviction", ts.Key)
		}
		for i, k := range keys {
			if ts.Key == k && ts.Bytes != patchBytes[i] {
				t.Errorf("tile %s charged %d bytes without a memo, patch estimates %d", k, ts.Bytes, patchBytes[i])
			}
		}
	}

	// Too large to retain: served, encoded per call, nothing charged.
	tiny, err := tr.NewTileCache(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	b1, _, err := tiny.PatchWire(keys[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	b2, _, err := tiny.PatchWire(keys[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, body) || !bytes.Equal(b2, body) {
		t.Error("unretained patch encodes differently from the retained one")
	}
	if st := tiny.Stats(); st.Bytes != 0 || st.Entries != 0 || st.UnretainedOver != 2 {
		t.Errorf("unretained PatchWire left %+v", st)
	}
}
