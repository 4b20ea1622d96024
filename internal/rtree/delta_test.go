package rtree

import (
	"math/rand"
	"testing"

	"dmesh/internal/geom"
)

// searchEach runs one Search per box in order, the way a coherent
// session fetches a frame's fragments, and returns every visit in order
// (an entry matching several boxes is visited once per box: the caller
// deduplicates).
func searchEach(t *testing.T, tr *Tree, boxes []geom.Box) []int64 {
	t.Helper()
	var out []int64
	for _, q := range boxes {
		if err := tr.Search(q, func(ref int64, _ geom.Box) bool {
			out = append(out, ref)
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestDeltaBoxesInvariant checks the contract coherent queries rely
// on: for random item sets and random target/cover volumes, every item
// intersecting a target box is either found by searching the delta
// fragments (geom.Difference of target and cover) or intersects a cover
// box; and searching the fragments only returns items that intersect a
// target box.
func TestDeltaBoxesInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var items []Item
	for i := 0; i < 400; i++ {
		items = append(items, Item{Box: randBox(rng, 0.1), Ref: int64(i)})
	}
	tr := newTree(t, 64, items)
	intersectsAny := func(b geom.Box, boxes []geom.Box) bool {
		for _, q := range boxes {
			if b.Intersects(q) {
				return true
			}
		}
		return false
	}
	for iter := 0; iter < 50; iter++ {
		target := []geom.Box{randBox(rng, 0.5), randBox(rng, 0.5)}
		cover := []geom.Box{randBox(rng, 0.5), randBox(rng, 0.4), randBox(rng, 0.3)}
		found := make(map[int64]bool)
		for _, ref := range searchEach(t, tr, geom.Difference(target, cover)) {
			found[ref] = true
		}
		for _, it := range items {
			inTarget := intersectsAny(it.Box, target)
			if found[it.Ref] && !inTarget {
				t.Fatalf("iter %d: delta search returned ref %d outside targets", iter, it.Ref)
			}
			if inTarget && !found[it.Ref] && !intersectsAny(it.Box, cover) {
				t.Fatalf("iter %d: ref %d intersects target, misses cover, not found", iter, it.Ref)
			}
		}
	}
}

// TestDeltaFragmentsUnionAndOrder checks what a caller deduplicating a
// frame's fragment searches sees: over the fragments of two heavily
// overlapping targets against a cover box inside both, the deduplicated
// visits are exactly the entries that intersect a fragment, an entry on a
// shared fragment face is indeed visited more than once (so the
// deduplication is needed), and the visit order is deterministic.
func TestDeltaFragmentsUnionAndOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var items []Item
	for i := 0; i < 200; i++ {
		items = append(items, Item{Box: randBox(rng, 0.2), Ref: int64(i)})
	}
	tr := newTree(t, 64, items)
	target := []geom.Box{
		{MinX: 0, MinY: 0, MinE: 0, MaxX: 0.8, MaxY: 0.8, MaxE: 0.8},
		{MinX: 0.1, MinY: 0.1, MinE: 0.1, MaxX: 0.9, MaxY: 0.9, MaxE: 0.9},
	}
	cover := []geom.Box{{MinX: 0.3, MinY: 0.3, MinE: 0.3, MaxX: 0.6, MaxY: 0.6, MaxE: 0.6}}
	frags := geom.Difference(target, cover)
	if len(frags) < 2 {
		t.Fatalf("expected several fragments, got %d", len(frags))
	}
	a := searchEach(t, tr, frags)
	seen := make(map[int64]bool, len(a))
	dups := 0
	for _, ref := range a {
		if seen[ref] {
			dups++
		}
		seen[ref] = true
	}
	if dups == 0 {
		t.Fatal("no entry matched two fragments: the test no longer covers the shared faces")
	}
	for _, it := range items {
		want := false
		for _, f := range frags {
			want = want || it.Box.Intersects(f)
		}
		if seen[it.Ref] != want {
			t.Fatalf("ref %d: visited=%v, intersects a fragment=%v", it.Ref, seen[it.Ref], want)
		}
	}
	b := searchEach(t, tr, frags)
	if !equalIDs(a, b) {
		t.Fatal("non-deterministic visit order over the same fragments")
	}
}
