// Package delaunay computes 2D Delaunay triangulations with the Bowyer-
// Watson algorithm. The paper's terrain sources are "regular or irregular
// mesh[es] of millions of 3D points"; regular grids are triangulated
// directly by internal/mesh, while irregular point sets (survey data,
// LIDAR-style samples) are triangulated here before simplification.
//
// Instead of a finite super triangle — whose corners end up inside the
// huge circumcircles of near-collinear hull triangles and corrupt the
// triangulation near the boundary — the implementation uses the ghost-
// vertex convention: one symbolic vertex at infinity closes every hull
// edge with a "ghost triangle", and the in-circumcircle predicate for a
// ghost degenerates to a half-plane test beyond its hull edge. Insertion
// order follows the Hilbert curve, so the walking point locator starts
// near its target.
package delaunay

import (
	"errors"
	"fmt"
	"sort"

	"dmesh/internal/geom"
)

// ghost is the symbolic vertex at infinity.
const ghost = -1

// Triangulate returns the Delaunay triangulation of points as index
// triples into the input slice, triangles oriented counter-clockwise.
// Duplicate points are rejected; fewer than three points, or an entirely
// collinear input, are errors.
func Triangulate(points []geom.Point2) ([]geom.Triangle, error) {
	n := len(points)
	if n < 3 {
		return nil, fmt.Errorf("delaunay: need at least 3 points, got %d", n)
	}
	seen := make(map[geom.Point2]int, n)
	for i, p := range points {
		if j, dup := seen[p]; dup {
			return nil, fmt.Errorf("delaunay: points %d and %d coincide at %v", j, i, p)
		}
		seen[p] = i
	}

	// Hilbert insertion order: spatial coherence keeps the walk short.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return geom.HilbertKey(points[order[a]]) < geom.HilbertKey(points[order[b]])
	})

	// The initial triangle needs three non-collinear points: keep the
	// first two, then pull forward the first point off their line.
	k := -1
	for j := 2; j < n; j++ {
		if orient2d(points[order[0]], points[order[1]], points[order[j]]) != 0 {
			k = j
			break
		}
	}
	if k == -1 {
		return nil, errors.New("delaunay: all points are collinear")
	}
	order[2], order[k] = order[k], order[2]

	t := newTriangulator(points, order[0], order[1], order[2])
	for _, i := range order[3:] {
		if err := t.insert(i); err != nil {
			return nil, err
		}
	}
	return t.result(), nil
}

// tri is one triangle of the working triangulation. Vertices index the
// point slice (or are the ghost); neighbor k sits across the edge
// opposite vertex k (edge (v[k+1], v[k+2])).
type tri struct {
	v     [3]int
	n     [3]int
	alive bool
}

type triangulator struct {
	pts  []geom.Point2
	tris []tri
	last int // most recently created triangle: the walk's start
}

func newTriangulator(points []geom.Point2, a, b, c int) *triangulator {
	if orient2d(points[a], points[b], points[c]) < 0 {
		b, c = c, b
	}
	t := &triangulator{pts: points}
	// Real triangle 0 plus one ghost per CCW hull edge: hull edge (u->v)
	// gets ghost (v, u, ghost), whose conflict region is the open half-
	// plane beyond the edge.
	t.tris = append(t.tris,
		tri{v: [3]int{a, b, c}, n: [3]int{2, 3, 1}, alive: true},     // 0: real
		tri{v: [3]int{b, a, ghost}, n: [3]int{3, 2, 0}, alive: true}, // 1: beyond (a,b)
		tri{v: [3]int{c, b, ghost}, n: [3]int{1, 3, 0}, alive: true}, // 2: beyond (b,c)
		tri{v: [3]int{a, c, ghost}, n: [3]int{2, 1, 0}, alive: true}, // 3: beyond (c,a)
	)
	return t
}

// orient2d returns twice the signed area of (a, b, c): positive when
// counter-clockwise.
func orient2d(a, b, c geom.Point2) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// inCircumcircle reports whether p lies strictly inside the circumcircle
// of the counter-clockwise triangle (a, b, c).
func inCircumcircle(a, b, c, p geom.Point2) bool {
	ax, ay := a.X-p.X, a.Y-p.Y
	bx, by := b.X-p.X, b.Y-p.Y
	cx, cy := c.X-p.X, c.Y-p.Y
	det := (ax*ax+ay*ay)*(bx*cy-cx*by) -
		(bx*bx+by*by)*(ax*cy-cx*ay) +
		(cx*cx+cy*cy)*(ax*by-bx*ay)
	return det > 0
}

// ghostIndex returns the position of the ghost vertex, or -1 for a real
// triangle.
func (tr *tri) ghostIndex() int {
	for k, v := range tr.v {
		if v == ghost {
			return k
		}
	}
	return -1
}

// conflicts reports whether inserting p must remove triangle ti. For real
// triangles this is the circumcircle test; for ghosts the circumcircle
// degenerates to the open half-plane beyond the hull edge, plus the edge
// segment itself (a point landing exactly on the hull boundary).
func (t *triangulator) conflicts(ti int, p geom.Point2) bool {
	tr := &t.tris[ti]
	g := tr.ghostIndex()
	if g == -1 {
		return inCircumcircle(t.pts[tr.v[0]], t.pts[tr.v[1]], t.pts[tr.v[2]], p)
	}
	u := t.pts[tr.v[(g+1)%3]]
	v := t.pts[tr.v[(g+2)%3]]
	o := orient2d(u, v, p)
	if o > 0 {
		return true
	}
	if o < 0 {
		return false
	}
	// Collinear with the hull edge: conflict when p lies between u and v
	// (it lands on the hull boundary and must split this edge).
	return u.Sub(p).Dot(v.Sub(p)) < 0
}

// locate walks across real triangles toward p, returning a triangle that
// conflicts with p (a real triangle containing it, or a ghost when p lies
// outside the current hull).
func (t *triangulator) locate(p geom.Point2) (int, error) {
	cur := t.last
	if !t.tris[cur].alive || t.tris[cur].ghostIndex() != -1 {
		cur = -1
		for i := len(t.tris) - 1; i >= 0; i-- {
			if t.tris[i].alive && t.tris[i].ghostIndex() == -1 {
				cur = i
				break
			}
		}
		if cur == -1 {
			return 0, errors.New("delaunay: no live real triangle")
		}
	}
	for steps := 0; steps < 4*len(t.tris)+16; steps++ {
		tr := &t.tris[cur]
		next := -1
		for k := 0; k < 3; k++ {
			a := t.pts[tr.v[(k+1)%3]]
			b := t.pts[tr.v[(k+2)%3]]
			if orient2d(a, b, p) < 0 {
				next = tr.n[k]
				break
			}
		}
		if next == -1 {
			return cur, nil // containing real triangle
		}
		if t.tris[next].ghostIndex() != -1 {
			return next, nil // p is outside the hull, beyond this edge
		}
		cur = next
	}
	return 0, errors.New("delaunay: point location did not terminate")
}

// insert adds point pi with Bowyer-Watson: grow the conflict cavity from
// the located triangle, remove it, and fan new triangles from pi around
// the cavity boundary.
func (t *triangulator) insert(pi int) error {
	p := t.pts[pi]
	start, err := t.locate(p)
	if err != nil {
		return err
	}
	if !t.conflicts(start, p) {
		// A real triangle contains p on its boundary without conflicting
		// only in degenerate numeric corners; its circumcircle test should
		// hold whenever p is inside. Treat as conflicting regardless.
		if t.tris[start].ghostIndex() != -1 {
			return fmt.Errorf("delaunay: located ghost does not conflict with point %d", pi)
		}
	}
	// cavity lists the conflict set in discovery order: the fan below is
	// numbered from it, so ranging over the map instead would hand back the
	// triangles in a different order on every run.
	conflict := map[int]bool{start: true}
	cavity := []int{start}
	stack := []int{start}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range t.tris[cur].n {
			if nb < 0 || conflict[nb] || !t.tris[nb].alive {
				continue
			}
			if t.conflicts(nb, p) {
				conflict[nb] = true
				cavity = append(cavity, nb)
				stack = append(stack, nb)
			}
		}
	}
	// Cavity boundary: directed edges (a, b) of conflict triangles whose
	// cross-edge neighbor survives. They wind CCW around the cavity.
	type bedge struct {
		a, b    int
		outside int
	}
	var boundary []bedge
	for _, ti := range cavity {
		tr := &t.tris[ti]
		for k := 0; k < 3; k++ {
			nb := tr.n[k]
			if nb >= 0 && conflict[nb] {
				continue
			}
			boundary = append(boundary, bedge{a: tr.v[(k+1)%3], b: tr.v[(k+2)%3], outside: nb})
		}
	}
	for _, ti := range cavity {
		t.tris[ti].alive = false
	}
	// Fan around pi: one triangle per boundary edge. The boundary cycle
	// visits each vertex once, so linking by shared endpoints is exact.
	newIdx := make([]int, len(boundary))
	byFirst := make(map[int]int, len(boundary)) // edge start vertex -> fan triangle
	bySecond := make(map[int]int, len(boundary))
	for i, be := range boundary {
		nt := tri{v: [3]int{pi, be.a, be.b}, n: [3]int{be.outside, -1, -1}, alive: true}
		idx := len(t.tris)
		t.tris = append(t.tris, nt)
		newIdx[i] = idx
		byFirst[be.a] = idx
		bySecond[be.b] = idx
		if be.outside >= 0 {
			out := &t.tris[be.outside]
			for k := 0; k < 3; k++ {
				x, y := out.v[(k+1)%3], out.v[(k+2)%3]
				if (x == be.a && y == be.b) || (x == be.b && y == be.a) {
					out.n[k] = idx
				}
			}
		}
	}
	for i, be := range boundary {
		// Edge opposite v[1]=be.a is (be.b, pi): shared with the fan
		// triangle whose boundary edge starts at be.b. Edge opposite
		// v[2]=be.b is (pi, be.a): shared with the one ending at be.a.
		t.tris[newIdx[i]].n[1] = byFirst[be.b]
		t.tris[newIdx[i]].n[2] = bySecond[be.a]
	}
	t.last = newIdx[0]
	return nil
}

// result extracts the real triangles, CCW-oriented.
func (t *triangulator) result() []geom.Triangle {
	var out []geom.Triangle
	for i := range t.tris {
		tr := &t.tris[i]
		if !tr.alive || tr.ghostIndex() != -1 {
			continue
		}
		a, b, c := tr.v[0], tr.v[1], tr.v[2]
		if orient2d(t.pts[a], t.pts[b], t.pts[c]) < 0 {
			b, c = c, b
		}
		out = append(out, geom.Triangle{A: int64(a), B: int64(b), C: int64(c)})
	}
	return out
}
