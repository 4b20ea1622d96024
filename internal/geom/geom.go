// Package geom provides the geometric primitives shared by every other
// package in the repository: 2D points and rectangles, 3D points and boxes,
// vertical line segments in (x, y, e) space, and triangles.
//
// Throughout the repository the third dimension of query space is the level
// of detail (LOD) value e, not the terrain elevation z. A terrain point
// carries both: (x, y, z) locate it on the surface, while its LOD interval
// [eLow, eHigh) positions it in query space. Package geom is agnostic to
// that interpretation; it only manipulates coordinates.
package geom

import (
	"fmt"
	"math"
)

// Point2 is a point in the (x, y) plane.
type Point2 struct {
	X, Y float64
}

// Sub returns the vector p - q.
func (p Point2) Sub(q Point2) Point2 { return Point2{p.X - q.X, p.Y - q.Y} }

// Dot returns the dot product of p and q viewed as vectors.
func (p Point2) Dot(q Point2) float64 { return p.X*q.X + p.Y*q.Y }

// Dist returns the Euclidean distance between p and q.
func (p Point2) Dist(q Point2) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Point3 is a point in (x, y, z) space.
type Point3 struct {
	X, Y, Z float64
}

// XY projects p onto the (x, y) plane.
func (p Point3) XY() Point2 { return Point2{p.X, p.Y} }

// Sub returns the vector p - q.
func (p Point3) Sub(q Point3) Point3 { return Point3{p.X - q.X, p.Y - q.Y, p.Z - q.Z} }

// Add returns the vector p + q.
func (p Point3) Add(q Point3) Point3 { return Point3{p.X + q.X, p.Y + q.Y, p.Z + q.Z} }

// Scale returns p scaled by s.
func (p Point3) Scale(s float64) Point3 { return Point3{p.X * s, p.Y * s, p.Z * s} }

// Dot returns the dot product of p and q viewed as vectors.
func (p Point3) Dot(q Point3) float64 { return p.X*q.X + p.Y*q.Y + p.Z*q.Z }

// Cross returns the cross product of p and q viewed as vectors.
func (p Point3) Cross(q Point3) Point3 {
	return Point3{
		p.Y*q.Z - p.Z*q.Y,
		p.Z*q.X - p.X*q.Z,
		p.X*q.Y - p.Y*q.X,
	}
}

// Norm returns the Euclidean length of p viewed as a vector.
func (p Point3) Norm() float64 { return math.Sqrt(p.Dot(p)) }

// Dist returns the Euclidean distance between p and q.
func (p Point3) Dist(q Point3) float64 { return p.Sub(q).Norm() }

// Rect is an axis-aligned rectangle in the (x, y) plane. A Rect is valid
// when MinX <= MaxX and MinY <= MaxY; the zero Rect is a single point at
// the origin.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// NewRect returns the rectangle spanning the two corner points in any order.
func NewRect(x0, y0, x1, y1 float64) Rect {
	if x1 < x0 {
		x0, x1 = x1, x0
	}
	if y1 < y0 {
		y0, y1 = y1, y0
	}
	return Rect{x0, y0, x1, y1}
}

// RectAround returns the rectangle centered at c with the given width and
// height.
func RectAround(c Point2, width, height float64) Rect {
	return Rect{c.X - width/2, c.Y - height/2, c.X + width/2, c.Y + height/2}
}

// Valid reports whether r has non-negative extent on both axes.
func (r Rect) Valid() bool { return r.MinX <= r.MaxX && r.MinY <= r.MaxY }

// Width returns the x extent of r.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the y extent of r.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// ContainsPoint reports whether p lies inside r (boundary inclusive).
func (r Rect) ContainsPoint(p Point2) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Intersect returns the overlap of r and s. The result is invalid
// (Valid() == false) when they do not intersect.
func (r Rect) Intersect(s Rect) Rect {
	return Rect{
		math.Max(r.MinX, s.MinX), math.Max(r.MinY, s.MinY),
		math.Min(r.MaxX, s.MaxX), math.Min(r.MaxY, s.MaxY),
	}
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		math.Min(r.MinX, s.MinX), math.Min(r.MinY, s.MinY),
		math.Max(r.MaxX, s.MaxX), math.Max(r.MaxY, s.MaxY),
	}
}

// ExpandPoint returns the smallest rectangle containing r and p.
func (r Rect) ExpandPoint(p Point2) Rect {
	return Rect{
		math.Min(r.MinX, p.X), math.Min(r.MinY, p.Y),
		math.Max(r.MaxX, p.X), math.Max(r.MaxY, p.Y),
	}
}

func (r Rect) String() string {
	return fmt.Sprintf("[%g,%g]x[%g,%g]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}

// PointRect returns the degenerate rectangle containing only p.
func PointRect(p Point2) Rect { return Rect{p.X, p.Y, p.X, p.Y} }

// Box is an axis-aligned box in (x, y, e) query space. The e axis holds LOD
// values. A Box is valid when Min <= Max on every axis.
type Box struct {
	MinX, MinY, MinE float64
	MaxX, MaxY, MaxE float64
}

// BoxFromRect lifts a 2D rectangle into query space with the LOD extent
// [eLow, eHigh].
func BoxFromRect(r Rect, eLow, eHigh float64) Box {
	return Box{r.MinX, r.MinY, eLow, r.MaxX, r.MaxY, eHigh}
}

// VerticalSegment returns the degenerate box representing the vertical line
// segment <(x, y, eLow), (x, y, eHigh)> that a Direct Mesh point becomes in
// (x, y, e) space.
func VerticalSegment(x, y, eLow, eHigh float64) Box {
	return Box{x, y, eLow, x, y, eHigh}
}

// Valid reports whether b has non-negative extent on every axis.
func (b Box) Valid() bool {
	return b.MinX <= b.MaxX && b.MinY <= b.MaxY && b.MinE <= b.MaxE
}

// Width returns the x extent of b.
func (b Box) Width() float64 { return b.MaxX - b.MinX }

// Height returns the y extent of b.
func (b Box) Height() float64 { return b.MaxY - b.MinY }

// Depth returns the e extent of b.
func (b Box) Depth() float64 { return b.MaxE - b.MinE }

// Volume returns the volume of b.
func (b Box) Volume() float64 { return b.Width() * b.Height() * b.Depth() }

// Intersects reports whether b and c share at least one point.
func (b Box) Intersects(c Box) bool {
	return b.MinX <= c.MaxX && c.MinX <= b.MaxX &&
		b.MinY <= c.MaxY && c.MinY <= b.MaxY &&
		b.MinE <= c.MaxE && c.MinE <= b.MaxE
}

// Contains reports whether c lies entirely inside b.
func (b Box) Contains(c Box) bool {
	return c.MinX >= b.MinX && c.MaxX <= b.MaxX &&
		c.MinY >= b.MinY && c.MaxY <= b.MaxY &&
		c.MinE >= b.MinE && c.MaxE <= b.MaxE
}

// ContainsPoint reports whether the point (x, y, e) lies inside b
// (boundary inclusive).
func (b Box) ContainsPoint(x, y, e float64) bool {
	return x >= b.MinX && x <= b.MaxX && y >= b.MinY && y <= b.MaxY && e >= b.MinE && e <= b.MaxE
}

// Union returns the smallest box containing both b and c.
func (b Box) Union(c Box) Box {
	return Box{
		math.Min(b.MinX, c.MinX), math.Min(b.MinY, c.MinY), math.Min(b.MinE, c.MinE),
		math.Max(b.MaxX, c.MaxX), math.Max(b.MaxY, c.MaxY), math.Max(b.MaxE, c.MaxE),
	}
}

// Intersect returns the overlap of b and c. The result is invalid when they
// do not intersect.
func (b Box) Intersect(c Box) Box {
	return Box{
		math.Max(b.MinX, c.MinX), math.Max(b.MinY, c.MinY), math.Max(b.MinE, c.MinE),
		math.Min(b.MaxX, c.MaxX), math.Min(b.MaxY, c.MaxY), math.Min(b.MaxE, c.MaxE),
	}
}

func (b Box) String() string {
	return fmt.Sprintf("[%g,%g]x[%g,%g]x[%g,%g]", b.MinX, b.MaxX, b.MinY, b.MaxY, b.MinE, b.MaxE)
}

// Interval is a half-open LOD interval [Low, High). Direct Mesh assigns one
// to every point: the point belongs to the approximation at LOD e exactly
// when e is inside the interval. The root of an MTM tree has High = +Inf.
type Interval struct {
	Low, High float64
}

// Contains reports whether e lies in the half-open interval [Low, High).
func (iv Interval) Contains(e float64) bool { return e >= iv.Low && e < iv.High }

func (iv Interval) String() string { return fmt.Sprintf("[%g,%g)", iv.Low, iv.High) }

// Triangle is a triangle over three vertex IDs. Callers keep the actual
// coordinates elsewhere; ID-level triangles are what mesh reconstruction
// produces.
type Triangle struct {
	A, B, C int64
}

// Canon returns t with its vertex IDs sorted ascending, so that triangles
// compare equal regardless of winding or rotation.
func (t Triangle) Canon() Triangle {
	a, b, c := t.A, t.B, t.C
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return Triangle{a, b, c}
}

// Degenerate reports whether two of t's vertex IDs coincide.
func (t Triangle) Degenerate() bool { return t.A == t.B || t.B == t.C || t.A == t.C }
