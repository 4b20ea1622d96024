package heightfield

import (
	"math"
	"testing"
)

func TestNewGridPanicsOnTiny(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGrid(1) must panic")
		}
	}()
	NewGrid(1)
}

func TestGridIndexing(t *testing.T) {
	g := NewGrid(4)
	g.Set(2, 3, 7.5)
	if got := g.At(2, 3); got != 7.5 {
		t.Fatalf("At(2,3) = %g, want 7.5", got)
	}
	x, y := g.XY(3, 0)
	if x != 1 || y != 0 {
		t.Fatalf("XY(3,0) = (%g,%g), want (1,0)", x, y)
	}
	x, y = g.XY(0, 3)
	if x != 0 || y != 1 {
		t.Fatalf("XY(0,3) = (%g,%g), want (0,1)", x, y)
	}
}

func TestPointsCoverUnitSquare(t *testing.T) {
	g := Highland(17, 42)
	pts := g.Points()
	if len(pts) != 17*17 {
		t.Fatalf("len(Points) = %d, want %d", len(pts), 17*17)
	}
	for _, p := range pts {
		if p.X < 0 || p.X > 1 || p.Y < 0 || p.Y > 1 {
			t.Fatalf("point outside unit square: %v", p)
		}
	}
	// Corner points must be exactly at the corners.
	if pts[0].X != 0 || pts[0].Y != 0 {
		t.Errorf("first point not at origin: %v", pts[0])
	}
	last := pts[len(pts)-1]
	if last.X != 1 || last.Y != 1 {
		t.Errorf("last point not at (1,1): %v", last)
	}
}

func TestNormalize(t *testing.T) {
	g := NewGrid(3)
	for i := range g.Z {
		g.Z[i] = float64(i) * 2
	}
	g.Normalize(10)
	lo, hi := g.MinMax()
	if lo != 0 || hi != 10 {
		t.Fatalf("after Normalize: min=%g max=%g", lo, hi)
	}
	// Flat grid normalizes to all zeros without NaN.
	f := NewGrid(3)
	for i := range f.Z {
		f.Z[i] = 5
	}
	f.Normalize(1)
	for _, z := range f.Z {
		if z != 0 {
			t.Fatalf("flat grid must normalize to 0, got %g", z)
		}
	}
}

func TestHighlandProperties(t *testing.T) {
	g := Highland(64, 7)
	lo, hi := g.MinMax()
	if lo != 0 || hi != 1 {
		t.Fatalf("Highland must be normalized to [0,1], got [%g,%g]", lo, hi)
	}
	var sum, sq float64
	for _, z := range g.Z {
		sum += z
	}
	mean := sum / float64(len(g.Z))
	for _, z := range g.Z {
		sq += (z - mean) * (z - mean)
	}
	if sd := math.Sqrt(sq / float64(len(g.Z))); sd < 0.05 {
		t.Errorf("highland too flat: stddev=%g", sd)
	}
	for _, z := range g.Z {
		if math.IsNaN(z) || math.IsInf(z, 0) {
			t.Fatal("non-finite height")
		}
	}
}

func TestCraterShape(t *testing.T) {
	g := Crater(129, 11)
	lo, hi := g.MinMax()
	if lo != 0 || hi != 1 {
		t.Fatalf("Crater must be normalized to [0,1], got [%g,%g]", lo, hi)
	}
	// The rim (at radius ~0.28 from center) must be higher than both the
	// lake center and the far corner.
	mid := g.Size / 2
	rim := int(float64(g.Size-1) * (0.5 + 0.28))
	center := g.At(mid, mid)
	rimZ := g.At(rim, mid)
	corner := g.At(0, 0)
	if rimZ <= center {
		t.Errorf("rim (%g) must be above lake center (%g)", rimZ, center)
	}
	if rimZ <= corner {
		t.Errorf("rim (%g) must be above corner (%g)", rimZ, corner)
	}
}

func TestNamed(t *testing.T) {
	for _, name := range []string{"highland", "crater"} {
		g, err := Named(name, 33, 1)
		if err != nil {
			t.Fatalf("Named(%q): %v", name, err)
		}
		if g.Size != 33 {
			t.Errorf("Named(%q) size = %d", name, g.Size)
		}
	}
	if _, err := Named("ocean", 33, 1); err == nil {
		t.Error("unknown dataset name must error")
	}
}

func TestValueNoiseRange(t *testing.T) {
	n := valueNoise{seed: 99}
	for x := 0.0; x < 4; x += 0.37 {
		for y := 0.0; y < 4; y += 0.29 {
			v := n.at(x, y)
			if v < 0 || v >= 1 {
				t.Fatalf("noise out of range at (%g,%g): %g", x, y, v)
			}
		}
	}
	// Lattice values must be reproducible.
	if n.lattice(3, 4) != n.lattice(3, 4) {
		t.Error("lattice not deterministic")
	}
}
