package btree

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"dmesh/internal/storage/pager"
)

// TestModelEquivalence drives the tree with random operation sequences and
// checks it against a plain map after every batch — the model-based
// property test for the only mutable index in the repository.
func TestModelEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := pager.New(pager.NewMemBackend(), 256)
		tr, err := Create(p)
		if err != nil {
			t.Fatal(err)
		}
		model := make(map[int64]int64)
		const keySpace = 500
		for op := 0; op < 1500; op++ {
			k := int64(rng.Intn(keySpace))
			switch rng.Intn(3) {
			case 0, 1: // insert/overwrite twice as often as a lookup
				v := rng.Int63()
				if err := tr.Put(k, v); err != nil {
					t.Fatal(err)
				}
				model[k] = v
			case 2:
				got, err := tr.Get(k)
				want, inModel := model[k]
				if inModel && (err != nil || got != want) || !inModel && !errors.Is(err, ErrNotFound) {
					t.Fatalf("Get(%d) = %d, %v mid-sequence; model has %d, %v", k, got, err, want, inModel)
				}
			}
		}
		if tr.Len() != int64(len(model)) {
			t.Fatalf("Len = %d, model %d", tr.Len(), len(model))
		}
		for k, v := range model {
			got, err := tr.Get(k)
			if err != nil || got != v {
				t.Fatalf("Get(%d) = %d, %v; want %d", k, got, err, v)
			}
		}
		// Spot-check absent keys.
		for k := int64(0); k < keySpace; k += 7 {
			if _, inModel := model[k]; inModel {
				continue
			}
			if _, err := tr.Get(k); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get(absent %d) = %v", k, err)
			}
		}
		// Range over everything must agree with the sorted model.
		count := 0
		err = tr.Range(-1<<62, 1<<62, func(k, v int64) bool {
			if model[k] != v {
				t.Fatalf("Range saw (%d,%d), model has %d", k, v, model[k])
			}
			count++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return count == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestSequentialVsReverseInsertSameContent checks insertion-order
// independence of the final key set.
func TestSequentialVsReverseInsertSameContent(t *testing.T) {
	build := func(reverse bool) *Tree {
		p := pager.New(pager.NewMemBackend(), 256)
		tr, err := Create(p)
		if err != nil {
			t.Fatal(err)
		}
		const n = 5000
		for i := 0; i < n; i++ {
			k := int64(i)
			if reverse {
				k = int64(n - 1 - i)
			}
			if err := tr.Put(k, k*2); err != nil {
				t.Fatal(err)
			}
		}
		return tr
	}
	a, b := build(false), build(true)
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	var seqA, seqB []int64
	a.Range(-1<<62, 1<<62, func(k, v int64) bool { seqA = append(seqA, k, v); return true })
	b.Range(-1<<62, 1<<62, func(k, v int64) bool { seqB = append(seqB, k, v); return true })
	if len(seqA) != len(seqB) {
		t.Fatal("scan lengths differ")
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("content differs at %d", i)
		}
	}
}
