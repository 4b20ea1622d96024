package delaunay

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dmesh/internal/geom"
)

func TestTooFewPoints(t *testing.T) {
	if _, err := Triangulate([]geom.Point2{{X: 0, Y: 0}, {X: 1, Y: 0}}); err == nil {
		t.Fatal("two points must be rejected")
	}
}

func TestDuplicatePointsRejected(t *testing.T) {
	pts := []geom.Point2{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 0}}
	if _, err := Triangulate(pts); err == nil {
		t.Fatal("duplicate points must be rejected")
	}
}

func TestSingleTriangle(t *testing.T) {
	pts := []geom.Point2{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}}
	tris, err := Triangulate(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tris) != 1 {
		t.Fatalf("got %d triangles, want 1", len(tris))
	}
	if tris[0].Canon() != (geom.Triangle{A: 0, B: 1, C: 2}) {
		t.Fatalf("got %v", tris[0])
	}
}

func TestSquare(t *testing.T) {
	pts := []geom.Point2{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1}}
	tris, err := Triangulate(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tris) != 2 {
		t.Fatalf("square: %d triangles, want 2", len(tris))
	}
}

// checkDelaunay verifies the empty-circumcircle property against every
// point (brute force).
func checkDelaunay(t *testing.T, pts []geom.Point2, tris []geom.Triangle) {
	t.Helper()
	for _, tr := range tris {
		a, b, c := pts[tr.A], pts[tr.B], pts[tr.C]
		if orient2d(a, b, c) <= 0 {
			t.Fatalf("triangle %v not CCW or degenerate", tr)
		}
		for i, p := range pts {
			if int64(i) == tr.A || int64(i) == tr.B || int64(i) == tr.C {
				continue
			}
			// A tolerance absorbs cocircular cases (e.g. grid squares).
			if inCircumcircleStrict(a, b, c, p, 1e-12) {
				t.Fatalf("point %d inside circumcircle of %v", i, tr)
			}
		}
	}
}

func inCircumcircleStrict(a, b, c, p geom.Point2, eps float64) bool {
	ax, ay := a.X-p.X, a.Y-p.Y
	bx, by := b.X-p.X, b.Y-p.Y
	cx, cy := c.X-p.X, c.Y-p.Y
	det := (ax*ax+ay*ay)*(bx*cy-cx*by) -
		(bx*bx+by*by)*(ax*cy-cx*ay) +
		(cx*cx+cy*cy)*(ax*by-bx*ay)
	return det > eps
}

func TestRandomPointsAreDelaunay(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		n := 30 + rng.Intn(120)
		pts := make([]geom.Point2, n)
		for i := range pts {
			pts[i] = geom.Point2{X: rng.Float64(), Y: rng.Float64()}
		}
		tris, err := Triangulate(pts)
		if err != nil {
			t.Fatal(err)
		}
		checkDelaunay(t, pts, tris)
	}
}

func TestEulerFormula(t *testing.T) {
	// For a Delaunay triangulation of n points with h hull points:
	// triangles = 2n - h - 2.
	rng := rand.New(rand.NewSource(7))
	n := 400
	pts := make([]geom.Point2, n)
	for i := range pts {
		pts[i] = geom.Point2{X: rng.Float64(), Y: rng.Float64()}
	}
	tris, err := Triangulate(pts)
	if err != nil {
		t.Fatal(err)
	}
	h := convexHullSize(pts)
	want := 2*n - h - 2
	if len(tris) != want {
		t.Fatalf("triangles = %d, want 2n-h-2 = %d (n=%d h=%d)", len(tris), want, n, h)
	}
}

// convexHullSize computes the hull vertex count (Andrew's monotone chain).
func convexHullSize(pts []geom.Point2) int {
	p := append([]geom.Point2(nil), pts...)
	// Sort by (x, y).
	for i := 1; i < len(p); i++ {
		for j := i; j > 0 && (p[j].X < p[j-1].X || (p[j].X == p[j-1].X && p[j].Y < p[j-1].Y)); j-- {
			p[j], p[j-1] = p[j-1], p[j]
		}
	}
	var hull []geom.Point2
	for _, pt := range p {
		for len(hull) >= 2 && orient2d(hull[len(hull)-2], hull[len(hull)-1], pt) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, pt)
	}
	lower := len(hull)
	for i := len(p) - 2; i >= 0; i-- {
		pt := p[i]
		for len(hull) > lower && orient2d(hull[len(hull)-2], hull[len(hull)-1], pt) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, pt)
	}
	return len(hull) - 1
}

func TestTrianglesCoverHullArea(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 200
	pts := make([]geom.Point2, n)
	for i := range pts {
		pts[i] = geom.Point2{X: rng.Float64(), Y: rng.Float64()}
	}
	tris, err := Triangulate(pts)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, tr := range tris {
		sum += math.Abs(orient2d(pts[tr.A], pts[tr.B], pts[tr.C])) / 2
	}
	hull := hullArea(pts)
	if math.Abs(sum-hull) > 1e-9 {
		t.Fatalf("triangle area %g != hull area %g", sum, hull)
	}
}

func hullArea(pts []geom.Point2) float64 {
	p := append([]geom.Point2(nil), pts...)
	for i := 1; i < len(p); i++ {
		for j := i; j > 0 && (p[j].X < p[j-1].X || (p[j].X == p[j-1].X && p[j].Y < p[j-1].Y)); j-- {
			p[j], p[j-1] = p[j-1], p[j]
		}
	}
	var hull []geom.Point2
	for _, pt := range p {
		for len(hull) >= 2 && orient2d(hull[len(hull)-2], hull[len(hull)-1], pt) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, pt)
	}
	lower := len(hull)
	for i := len(p) - 2; i >= 0; i-- {
		pt := p[i]
		for len(hull) > lower && orient2d(hull[len(hull)-2], hull[len(hull)-1], pt) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, pt)
	}
	hull = hull[:len(hull)-1]
	var area float64
	for i := 1; i+1 < len(hull); i++ {
		area += orient2d(hull[0], hull[i], hull[i+1]) / 2
	}
	return math.Abs(area)
}

func TestEdgesManifold(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 300
	pts := make([]geom.Point2, n)
	for i := range pts {
		pts[i] = geom.Point2{X: rng.Float64(), Y: rng.Float64()}
	}
	tris, err := Triangulate(pts)
	if err != nil {
		t.Fatal(err)
	}
	use := map[[2]int64]int{}
	for _, tr := range tris {
		for _, e := range [][2]int64{{tr.A, tr.B}, {tr.B, tr.C}, {tr.A, tr.C}} {
			if e[0] > e[1] {
				e[0], e[1] = e[1], e[0]
			}
			use[e]++
		}
	}
	for e, c := range use {
		if c > 2 {
			t.Fatalf("edge %v used by %d triangles", e, c)
		}
	}
}

func TestGridPoints(t *testing.T) {
	// Regular grids are the worst case for cocircularity; the result must
	// still be a valid triangulation of the square.
	var pts []geom.Point2
	const k = 8
	for j := 0; j < k; j++ {
		for i := 0; i < k; i++ {
			pts = append(pts, geom.Point2{X: float64(i) / (k - 1), Y: float64(j) / (k - 1)})
		}
	}
	tris, err := Triangulate(pts)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * (k - 1) * (k - 1)
	if len(tris) != want {
		t.Fatalf("grid: %d triangles, want %d", len(tris), want)
	}
	var sum float64
	for _, tr := range tris {
		sum += math.Abs(orient2d(pts[tr.A], pts[tr.B], pts[tr.C])) / 2
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("grid triangulation area %g, want 1", sum)
	}
}

func BenchmarkTriangulate1k(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	pts := make([]geom.Point2, 1000)
	for i := range pts {
		pts[i] = geom.Point2{X: rng.Float64(), Y: rng.Float64()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Triangulate(pts); err != nil {
			b.Fatal(err)
		}
	}
}

// The triangle order is part of the output: the simplifier sums quadrics in
// it, and float addition is not associative. Ranging over the conflict map
// made it differ between two calls on the same points.
func TestTriangleOrderDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := make([]geom.Point2, 500)
	for i := range pts {
		pts[i] = geom.Point2{X: rng.Float64(), Y: rng.Float64()}
	}
	first, err := Triangulate(pts)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 5; run++ {
		again, err := Triangulate(pts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d returned the triangles in a different order", run)
		}
	}
}
