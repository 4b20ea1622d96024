package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRectBasics(t *testing.T) {
	r := NewRect(3, 4, 1, 2) // corners in arbitrary order
	if r != (Rect{1, 2, 3, 4}) {
		t.Fatalf("NewRect normalization: got %v", r)
	}
	if got := r.Width(); got != 2 {
		t.Errorf("Width = %g, want 2", got)
	}
	if got := r.Height(); got != 2 {
		t.Errorf("Height = %g, want 2", got)
	}
	if got := r.Area(); got != 4 {
		t.Errorf("Area = %g, want 4", got)
	}
	if !r.ContainsPoint(Point2{1, 2}) || !r.ContainsPoint(Point2{3, 4}) {
		t.Error("boundary points must be contained")
	}
	if r.ContainsPoint(Point2{0.999, 3}) {
		t.Error("point left of rect reported contained")
	}
}

func TestRectAround(t *testing.T) {
	r := RectAround(Point2{5, 5}, 2, 4)
	want := Rect{4, 3, 6, 7}
	if r != want {
		t.Fatalf("RectAround = %v, want %v", r, want)
	}
}

func TestRectIntersection(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	b := Rect{1, 1, 3, 3}
	c := Rect{5, 5, 6, 6}
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("a and b should intersect")
	}
	if a.Intersects(c) {
		t.Error("a and c should not intersect")
	}
	i := a.Intersect(b)
	if i != (Rect{1, 1, 2, 2}) {
		t.Errorf("Intersect = %v", i)
	}
	if v := a.Intersect(c); v.Valid() {
		t.Errorf("disjoint Intersect should be invalid, got %v", v)
	}
	// Touching rectangles intersect (closed boxes).
	d := Rect{2, 0, 4, 2}
	if !a.Intersects(d) {
		t.Error("touching rects must intersect")
	}
}

func TestRectUnionContains(t *testing.T) {
	a := Rect{0, 0, 1, 1}
	b := Rect{2, 2, 3, 3}
	u := a.Union(b)
	if u != (Rect{0, 0, 3, 3}) {
		t.Errorf("Union = %v", u)
	}
	e := a.ExpandPoint(Point2{-1, 5})
	if !e.ContainsPoint(Point2{-1, 5}) || e.Union(a) != e {
		t.Errorf("ExpandPoint result %v wrong", e)
	}
}

func TestBoxBasics(t *testing.T) {
	b := BoxFromRect(Rect{0, 0, 2, 3}, 1, 5)
	if b.Width() != 2 || b.Height() != 3 || b.Depth() != 4 {
		t.Fatalf("extents wrong: %v", b)
	}
	if b.Volume() != 24 {
		t.Errorf("Volume = %g, want 24", b.Volume())
	}
	if !b.ContainsPoint(2, 3, 5) {
		t.Error("boundary point must be contained")
	}
	if b.ContainsPoint(0, 0, 0.999) {
		t.Error("point below must not be contained")
	}
}

func TestBoxIntersectUnion(t *testing.T) {
	a := Box{0, 0, 0, 2, 2, 2}
	b := Box{1, 1, 1, 3, 3, 3}
	if !a.Intersects(b) {
		t.Fatal("boxes should intersect")
	}
	if got := a.Intersect(b).Volume(); got != 1 {
		t.Errorf("overlap volume = %g, want 1", got)
	}
	u := a.Union(b)
	if !u.Contains(a) || !u.Contains(b) {
		t.Errorf("union must contain inputs: %v", u)
	}
	c := Box{10, 10, 10, 11, 11, 11}
	if a.Intersects(c) {
		t.Error("disjoint boxes reported intersecting")
	}
	if a.Intersect(c).Valid() {
		t.Error("disjoint boxes must have an invalid intersection")
	}
}

func TestVerticalSegment(t *testing.T) {
	s := VerticalSegment(0.5, 0.25, 1, 4)
	if s.Width() != 0 || s.Height() != 0 || s.Depth() != 3 {
		t.Fatalf("vertical segment extents wrong: %v", s)
	}
	// The query-plane intersection semantics from Section 5.1: the segment
	// intersects the plane (r, e) iff (x,y) in r and eLow <= e <= eHigh.
	plane := BoxFromRect(Rect{0, 0, 1, 1}, 2, 2)
	if !s.Intersects(plane) {
		t.Error("segment must intersect plane at e=2")
	}
	below := BoxFromRect(Rect{0, 0, 1, 1}, 0.5, 0.5)
	if s.Intersects(below) {
		t.Error("segment must not intersect plane at e=0.5")
	}
}

func TestIntervalSemantics(t *testing.T) {
	iv := Interval{1, 3}
	if !iv.Contains(1) {
		t.Error("half-open interval must contain its low end")
	}
	if iv.Contains(3) {
		t.Error("half-open interval must not contain its high end")
	}
}

func TestIntervalRootInfinity(t *testing.T) {
	root := Interval{7, math.Inf(1)}
	if !root.Contains(7) || !root.Contains(1e18) {
		t.Error("root interval must contain all e >= its low end")
	}
	if root.Contains(6.999) {
		t.Error("root interval must not contain e below its low end")
	}
}

func TestTriangleCanon(t *testing.T) {
	perms := []Triangle{{1, 2, 3}, {2, 1, 3}, {3, 2, 1}, {1, 3, 2}, {2, 3, 1}, {3, 1, 2}}
	for _, p := range perms {
		if got := p.Canon(); got != (Triangle{1, 2, 3}) {
			t.Errorf("Canon(%v) = %v", p, got)
		}
	}
	if (Triangle{1, 2, 3}).Degenerate() {
		t.Error("proper triangle reported degenerate")
	}
	if !(Triangle{1, 1, 3}).Degenerate() {
		t.Error("degenerate triangle not detected")
	}
}

func TestVectorOps(t *testing.T) {
	p := Point3{1, 0, 0}
	q := Point3{0, 1, 0}
	if got := p.Cross(q); got != (Point3{0, 0, 1}) {
		t.Errorf("Cross = %v", got)
	}
	if got := p.Dot(q); got != 0 {
		t.Errorf("Dot = %g", got)
	}
	if got := (Point3{3, 4, 0}).Norm(); got != 5 {
		t.Errorf("Norm = %g", got)
	}
	if d := (Point2{0, 0}).Dist(Point2{3, 4}); d != 5 {
		t.Errorf("Dist = %g", d)
	}
}

// Property: union of two rects always contains both; intersection, when
// valid, is contained in both. s contains r exactly when r ∪ s == s.
func TestRectUnionIntersectProperty(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh float64) bool {
		a := NewRect(ax, ay, ax+math.Abs(aw), ay+math.Abs(ah))
		b := NewRect(bx, by, bx+math.Abs(bw), by+math.Abs(bh))
		u := a.Union(b)
		if u.Union(a) != u || u.Union(b) != u {
			return false
		}
		i := a.Intersect(b)
		if i.Valid() && (a.Union(i) != a || b.Union(i) != b) {
			return false
		}
		// Intersects must agree with Intersect validity.
		return a.Intersects(b) == i.Valid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: box intersection symmetry and containment monotonicity.
func TestBoxIntersectsProperty(t *testing.T) {
	f := func(a, b Box) bool {
		a = normBox(a)
		b = normBox(b)
		if a.Intersects(b) != b.Intersects(a) {
			return false
		}
		u := a.Union(b)
		return u.Contains(a) && u.Contains(b) && u.Intersects(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func normBox(b Box) Box {
	if b.MinX > b.MaxX {
		b.MinX, b.MaxX = b.MaxX, b.MinX
	}
	if b.MinY > b.MaxY {
		b.MinY, b.MaxY = b.MaxY, b.MinY
	}
	if b.MinE > b.MaxE {
		b.MinE, b.MaxE = b.MaxE, b.MinE
	}
	return b
}

func TestHilbertRoundTrip(t *testing.T) {
	// HilbertXY2D is a bijection from the cells onto [0, n²).
	const order = 6
	n := uint32(1) << order
	seen := make(map[uint64]bool, n*n)
	for x := uint32(0); x < n; x++ {
		for y := uint32(0); y < n; y++ {
			d := HilbertXY2D(order, x, y)
			if seen[d] || d >= uint64(n)*uint64(n) {
				t.Fatalf("Hilbert distance %d for (%d,%d) repeated or out of range", d, x, y)
			}
			seen[d] = true
		}
	}
}

func TestHilbertLocality(t *testing.T) {
	// Consecutive distances along the curve must be 4-adjacent cells.
	const order = 5
	n := uint32(1) << order
	cell := make([][2]int64, n*n)
	for x := uint32(0); x < n; x++ {
		for y := uint32(0); y < n; y++ {
			cell[HilbertXY2D(order, x, y)] = [2]int64{int64(x), int64(y)}
		}
	}
	for d := 1; d < len(cell); d++ {
		dx, dy := cell[d][0]-cell[d-1][0], cell[d][1]-cell[d-1][1]
		if dx*dx+dy*dy != 1 {
			t.Fatalf("curve jump at d=%d: %v->%v", d, cell[d-1], cell[d])
		}
	}
}

func TestHilbertKeyClamps(t *testing.T) {
	lo := HilbertKey(Point2{-5, -5})
	hi := HilbertKey(Point2{5, 5})
	if lo == hi {
		t.Error("distinct clamped corners should map to distinct keys")
	}
	if HilbertKey(Point2{0, 0}) != lo {
		t.Error("clamping must map (-5,-5) to the (0,0) key")
	}
}
