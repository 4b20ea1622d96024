package btree

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestModelEquivalence holds a built tree to the slice it was built
// from: Get of every key in [−2, N+2) (the N keys and a few on either
// side, which must be ErrNotFound), Range over random windows and over
// everything, and Len. Sizes cover one node, the split boundaries and
// random sizes up to three levels.
func TestModelEquivalence(t *testing.T) {
	check := func(seed int64, n int) {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63() - rng.Int63()
		}
		tr, _ := openBuilt(t, vals, 64)
		if tr.Len() != int64(n) {
			t.Fatalf("N=%d: Len = %d", n, tr.Len())
		}
		for k := int64(-2); k < int64(n)+2; k++ {
			got, err := tr.Get(k)
			if k < 0 || k >= int64(n) {
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("N=%d: Get(absent %d) = %d, %v", n, k, got, err)
				}
			} else if err != nil || got != vals[k] {
				t.Fatalf("N=%d: Get(%d) = %d, %v; want %d", n, k, got, err, vals[k])
			}
		}
		windows := [][2]int64{{-1 << 62, 1 << 62}}
		for range 8 {
			lo, hi := rng.Int63n(int64(n)+6)-3, rng.Int63n(int64(n)+6)-3
			windows = append(windows, [2]int64{lo, hi})
		}
		for _, w := range windows {
			next := max(w[0], 0)
			err := tr.Range(w[0], w[1], func(k, v int64) bool {
				if k != next || v != vals[k] {
					t.Fatalf("N=%d: Range(%d, %d) saw (%d, %d) where key %d was next", n, w[0], w[1], k, v, next)
				}
				next++
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if want := max(min(w[1]+1, int64(n)), w[0], 0); next != want {
				t.Fatalf("N=%d: Range(%d, %d) ended at key %d, want %d", n, w[0], w[1], next, want)
			}
		}
	}
	for i, n := range []int{0, 1, 2, 126, 127, 128, 253, 254, 255, 256, 381, 382, 32385, 32386} {
		check(int64(i), n)
	}
	f := func(seed int64) bool {
		check(seed, rand.New(rand.NewSource(seed)).Intn(40000))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}
