package geom

import (
	"math"
	"math/rand"
	"testing"
)

// latticeBox draws a box with coordinates on a k/8 lattice so exact
// face contact and shared boundaries occur often.
func latticeBox(rng *rand.Rand) Box {
	coord := func() float64 { return float64(rng.Intn(9)) / 8 }
	span := func() (float64, float64) {
		a, b := coord(), coord()
		if b < a {
			a, b = b, a
		}
		return a, b
	}
	x0, x1 := span()
	y0, y1 := span()
	e0, e1 := span()
	return Box{x0, y0, e0, x1, y1, e1}
}

func boxesContain(boxes []Box, x, y, e float64) bool {
	for _, b := range boxes {
		if b.ContainsPoint(x, y, e) {
			return true
		}
	}
	return false
}

func TestSubtractDisjointAndContained(t *testing.T) {
	b := Box{0, 0, 0, 1, 1, 1}
	if got := b.Subtract(Box{2, 2, 2, 3, 3, 3}); len(got) != 1 || got[0] != b {
		t.Fatalf("disjoint subtract = %v, want [b]", got)
	}
	if got := b.Subtract(Box{-1, -1, -1, 2, 2, 2}); got != nil {
		t.Fatalf("covered subtract = %v, want nil", got)
	}
	// Face contact exposes no new volume: keep b whole.
	if got := b.Subtract(Box{1, 0, 0, 2, 1, 1}); len(got) != 1 || got[0] != b {
		t.Fatalf("face-contact subtract = %v, want [b]", got)
	}
}

func TestSubtractDegenerateBox(t *testing.T) {
	// A viewpoint-independent query volume is degenerate on e; chipping
	// an advanced copy off it must yield the uncovered slab, still at
	// the same e.
	b := Box{0, 0, 0.5, 1, 1, 0.5}
	c := Box{0, 0.25, 0.5, 1, 1.25, 0.5}
	frags := b.Subtract(c)
	if len(frags) != 1 {
		t.Fatalf("got %d fragments, want 1: %v", len(frags), frags)
	}
	want := Box{0, 0, 0.5, 1, 0.25, 0.5}
	if frags[0] != want {
		t.Fatalf("fragment = %v, want %v", frags[0], want)
	}
}

// TestSubtractProperty checks the partition contract on random lattice
// boxes: fragments stay inside b, never overlap c's interior, conserve
// the uncovered volume exactly, and cover every sampled point of b \ c.
func TestSubtractProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 2000; iter++ {
		b, c := latticeBox(rng), latticeBox(rng)
		frags := b.Subtract(c)
		var vol float64
		for _, f := range frags {
			if !f.Valid() {
				t.Fatalf("iter %d: invalid fragment %v from %v \\ %v", iter, f, b, c)
			}
			if !b.Contains(f) {
				t.Fatalf("iter %d: fragment %v escapes %v", iter, f, b)
			}
			vol += f.Volume()
			if ov := f.Intersect(c); ov.Valid() && ov.Volume() != 0 {
				t.Fatalf("iter %d: fragment %v overlaps %v in %v", iter, f, c, ov)
			}
		}
		// Volume conservation implies the fragments are interior-disjoint.
		i := b.Intersect(c)
		uncovered := b.Volume()
		if i.Valid() && !(i.Width() == 0 && b.Width() > 0) &&
			!(i.Height() == 0 && b.Height() > 0) &&
			!(i.Depth() == 0 && b.Depth() > 0) {
			uncovered -= i.Volume()
		}
		if math.Abs(vol-uncovered) > 1e-12 {
			t.Fatalf("iter %d: fragment volume %g, want %g (%v \\ %v)", iter, vol, uncovered, b, c)
		}
		for s := 0; s < 20; s++ {
			x := b.MinX + rng.Float64()*b.Width()
			y := b.MinY + rng.Float64()*b.Height()
			e := b.MinE + rng.Float64()*b.Depth()
			if !c.ContainsPoint(x, y, e) && !boxesContain(frags, x, y, e) {
				t.Fatalf("iter %d: point (%g,%g,%g) in %v \\ %v missed by fragments %v",
					iter, x, y, e, b, c, frags)
			}
		}
	}
}

// TestDifferenceProperty checks the delta-query contract: every sampled
// point inside some target but outside every cover box lies in a
// fragment, and every fragment stays inside its originating target set.
func TestDifferenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 500; iter++ {
		targets := make([]Box, 1+rng.Intn(3))
		for i := range targets {
			targets[i] = latticeBox(rng)
		}
		cover := make([]Box, rng.Intn(4))
		for i := range cover {
			cover[i] = latticeBox(rng)
		}
		frags := Difference(targets, cover)
		for _, f := range frags {
			inTarget := false
			for _, tb := range targets {
				if tb.Contains(f) {
					inTarget = true
					break
				}
			}
			if !inTarget {
				t.Fatalf("iter %d: fragment %v outside all targets %v", iter, f, targets)
			}
		}
		for s := 0; s < 50; s++ {
			tb := targets[rng.Intn(len(targets))]
			x := tb.MinX + rng.Float64()*tb.Width()
			y := tb.MinY + rng.Float64()*tb.Height()
			e := tb.MinE + rng.Float64()*tb.Depth()
			if !boxesContain(cover, x, y, e) && !boxesContain(frags, x, y, e) {
				t.Fatalf("iter %d: uncovered point (%g,%g,%g) missed (targets %v cover %v frags %v)",
					iter, x, y, e, targets, cover, frags)
			}
		}
	}
}

func TestDifferenceDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	targets := []Box{latticeBox(rng), latticeBox(rng)}
	cover := []Box{latticeBox(rng), latticeBox(rng), latticeBox(rng)}
	a := Difference(targets, cover)
	b := Difference(targets, cover)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fragment %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}
