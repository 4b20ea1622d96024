package cluster

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"dmesh/internal/geom"
	"dmesh/internal/tilecache"
)

// gridKeys returns every key of a grid as deep as every tile cache's
// (tilecache's default depth, 4) over an eight-rung ladder.
func gridKeys() []tilecache.Key {
	var keys []tilecache.Key
	for level := 0; level <= 4; level++ {
		for iy := 0; iy < 1<<level; iy++ {
			for ix := 0; ix < 1<<level; ix++ {
				for band := 0; band < 8; band++ {
					keys = append(keys, tilecache.Key{Level: level, IX: ix, IY: iy, Band: band})
				}
			}
		}
	}
	return keys
}

// ringOf returns a ring over n shard IDs.
func ringOf(t *testing.T, n int) *Ring {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("http://127.0.0.1:%d", 9000+i)
	}
	r, err := NewRing(ids)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// A key placed from its stack-buffer spelling lands where Order puts its
// String: the same shards in the same order, cut to maxAttempts. The
// spelling and the hash are the routing contract's: "L/IY/IX/B" through
// FNV-1a and mix64.
func TestPlaceMatchesOrder(t *testing.T) {
	keys := gridKeys()
	for _, k := range keys {
		s := k.String()
		if want := fmt.Sprintf("%d/%d/%d/%d", k.Level, k.IY, k.IX, k.Band); s != want {
			t.Fatalf("key spelled %q, want %q", s, want)
		}
		h := fnv.New64a()
		h.Write([]byte(s))
		if hash64(s) != mix64(h.Sum64()) {
			t.Fatalf("key %s: hash64 is not FNV-1a through mix64", s)
		}
	}
	for _, n := range []int{2, 3, 5} {
		r := ringOf(t, n)
		for _, k := range keys {
			order := r.Order(k.String())
			want := order[:min(maxAttempts, len(order))]
			p := r.place(k)
			if got := p.shards[:p.n]; !slices.Equal(got, want) {
				t.Fatalf("%d shards, key %s: placed on %v, Order says %v", n, k, got, want)
			}
		}
	}
}

// Placing a key that is not hot allocates nothing.
func TestCandidatesOfAColdKeyAllocateNothing(t *testing.T) {
	grid, err := tilecache.NewGrid(geom.Rect{MaxX: 1, MaxY: 1}, 4, []float64{0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"http://127.0.0.1:9000", "http://127.0.0.1:9001", "http://127.0.0.1:9002"}
	rt, err := NewRouter(Config{Shards: ids, IDs: ids, Grid: grid})
	if err != nil {
		t.Fatal(err)
	}
	k := tilecache.Key{Level: 3, IX: 5, IY: 2, Band: 1}
	if got := testing.AllocsPerRun(100, func() { rt.candidates(k) }); got != 0 {
		t.Fatalf("candidates of a cold key: %v allocations, want 0", got)
	}
}
