// Package mesh provides an indexed triangle mesh, adjacency computation,
// manifold checks, and the regular-grid triangulation used to turn a
// heightfield into the full-resolution terrain mesh that multiresolution
// structures are built from.
package mesh

import (
	"fmt"
	"sort"

	"dmesh/internal/geom"
	"dmesh/internal/heightfield"
)

// Mesh is an indexed triangle mesh. Vertex IDs are indices into Positions;
// triangles reference vertices by ID. The mesh does not have to use every
// vertex.
type Mesh struct {
	Positions []geom.Point3
	Tris      []geom.Triangle
}

// FromGrid triangulates a heightfield into a mesh: each grid cell becomes
// two triangles, split along the diagonal that better follows the surface
// (the shorter 3D diagonal), which avoids systematic diagonal artifacts.
func FromGrid(g *heightfield.Grid) *Mesh {
	n := g.Size
	m := &Mesh{
		Positions: g.Points(),
		Tris:      make([]geom.Triangle, 0, 2*(n-1)*(n-1)),
	}
	id := func(i, j int) int64 { return int64(j*n + i) }
	for j := 0; j < n-1; j++ {
		for i := 0; i < n-1; i++ {
			a := id(i, j)
			b := id(i+1, j)
			c := id(i, j+1)
			d := id(i+1, j+1)
			pa, pb, pc, pd := m.Positions[a], m.Positions[b], m.Positions[c], m.Positions[d]
			if pa.Dist(pd) <= pb.Dist(pc) {
				// Split along a-d.
				m.Tris = append(m.Tris, geom.Triangle{A: a, B: b, C: d}, geom.Triangle{A: a, B: d, C: c})
			} else {
				// Split along b-c.
				m.Tris = append(m.Tris, geom.Triangle{A: a, B: b, C: c}, geom.Triangle{A: b, B: d, C: c})
			}
		}
	}
	return m
}

// NumTriangles returns the number of triangles.
func (m *Mesh) NumTriangles() int { return len(m.Tris) }

// Adjacency computes, for every vertex, the sorted list of vertices it
// shares an edge with. Vertices not referenced by any triangle get nil
// entries.
func (m *Mesh) Adjacency() [][]int64 {
	adj := make([]map[int64]struct{}, len(m.Positions))
	add := func(a, b int64) {
		if adj[a] == nil {
			adj[a] = make(map[int64]struct{}, 8)
		}
		adj[a][b] = struct{}{}
	}
	for _, t := range m.Tris {
		add(t.A, t.B)
		add(t.B, t.A)
		add(t.B, t.C)
		add(t.C, t.B)
		add(t.A, t.C)
		add(t.C, t.A)
	}
	out := make([][]int64, len(m.Positions))
	for v, set := range adj {
		if set == nil {
			continue
		}
		lst := make([]int64, 0, len(set))
		for u := range set {
			lst = append(lst, u)
		}
		sort.Slice(lst, func(i, j int) bool { return lst[i] < lst[j] })
		out[v] = lst
	}
	return out
}

// EdgeUse counts how many triangles reference each undirected edge.
type EdgeUse map[[2]int64]int

// Edges returns the use count of every undirected edge in the mesh.
func (m *Mesh) Edges() EdgeUse {
	use := make(EdgeUse, len(m.Tris)*3/2)
	bump := func(a, b int64) {
		if a > b {
			a, b = b, a
		}
		use[[2]int64{a, b}]++
	}
	for _, t := range m.Tris {
		bump(t.A, t.B)
		bump(t.B, t.C)
		bump(t.A, t.C)
	}
	return use
}

// CheckManifold verifies that every edge is used by at most two triangles
// (one on the boundary), that no triangle is degenerate, and that every
// triangle references valid vertex IDs. It returns a descriptive error for
// the first violation found.
func (m *Mesh) CheckManifold() error {
	n := int64(len(m.Positions))
	for i, t := range m.Tris {
		if t.Degenerate() {
			return fmt.Errorf("mesh: triangle %d is degenerate: %v", i, t)
		}
		for _, v := range []int64{t.A, t.B, t.C} {
			if v < 0 || v >= n {
				return fmt.Errorf("mesh: triangle %d references vertex %d out of range [0,%d)", i, v, n)
			}
		}
	}
	for e, c := range m.Edges() {
		if c > 2 {
			return fmt.Errorf("mesh: edge %v used by %d triangles", e, c)
		}
	}
	return nil
}

// UsedVertices returns the set of vertex IDs referenced by at least one
// triangle.
func (m *Mesh) UsedVertices() map[int64]bool {
	used := make(map[int64]bool, len(m.Positions))
	for _, t := range m.Tris {
		used[t.A] = true
		used[t.B] = true
		used[t.C] = true
	}
	return used
}
