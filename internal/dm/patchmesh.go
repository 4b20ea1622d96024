package dm

import "dmesh/internal/geom"

// patchMesh maintains a reconstructed approximation mesh across
// coherent frames so that only the dirty region is re-triangulated.
//
// Edges are refcounted: a lifted edge (rep(a), rep(b)) can be witnessed
// by several connection pairs (a, b), and it exists while at least one
// witness remains (assembleLifted's seen-set dedup, made incremental).
// The triangle set is maintained as the exact 3-cliques of the edge
// graph: when an edge appears, the common neighbors of its endpoints
// each close a new triangle; when an edge disappears, every triangle on
// it dies. Both updates are order-independent across a batch of edge
// changes — a triangle that loses an edge is removed at whichever of
// its removed edges is processed first, and one that gains its final
// edge is added when that last edge arrives — so patching a frame's
// dirty pairs in any order lands on the same mesh as a full rebuild.
type patchMesh struct {
	edgeCount map[[2]int64]int
	adj       map[int64]map[int64]struct{}
	tris      map[geom.Triangle]struct{}
}

func newPatchMesh() *patchMesh {
	return &patchMesh{
		edgeCount: make(map[[2]int64]int),
		adj:       make(map[int64]map[int64]struct{}),
		tris:      make(map[geom.Triangle]struct{}),
	}
}

// inc adds one witness for edge e, materializing the edge (and the
// triangles it closes) on the 0 -> 1 transition.
func (p *patchMesh) inc(e [2]int64) {
	p.edgeCount[e]++
	if p.edgeCount[e] == 1 {
		p.addEdge(e[0], e[1])
	}
}

// dec removes one witness for edge e, dissolving the edge (and every
// triangle on it) on the 1 -> 0 transition.
func (p *patchMesh) dec(e [2]int64) {
	c := p.edgeCount[e] - 1
	if c > 0 {
		p.edgeCount[e] = c
		return
	}
	delete(p.edgeCount, e)
	p.removeEdge(e[0], e[1])
}

func (p *patchMesh) addEdge(u, v int64) {
	p.forEachCommonNeighbor(u, v, func(w int64) {
		p.tris[canonTriangle(u, v, w)] = struct{}{}
	})
	p.link(u, v)
	p.link(v, u)
}

func (p *patchMesh) removeEdge(u, v int64) {
	p.unlink(u, v)
	p.unlink(v, u)
	p.forEachCommonNeighbor(u, v, func(w int64) {
		delete(p.tris, canonTriangle(u, v, w))
	})
}

func (p *patchMesh) link(u, v int64) {
	m := p.adj[u]
	if m == nil {
		m = make(map[int64]struct{})
		p.adj[u] = m
	}
	m[v] = struct{}{}
}

func (p *patchMesh) unlink(u, v int64) {
	m := p.adj[u]
	delete(m, v)
	if len(m) == 0 {
		delete(p.adj, u)
	}
}

func (p *patchMesh) forEachCommonNeighbor(u, v int64, fn func(w int64)) {
	a, b := p.adj[u], p.adj[v]
	if len(a) > len(b) {
		a, b = b, a
	}
	for w := range a {
		if _, ok := b[w]; ok {
			fn(w)
		}
	}
}

func edgeKey(a, b int64) [2]int64 {
	if a > b {
		a, b = b, a
	}
	return [2]int64{a, b}
}

func canonTriangle(a, b, c int64) geom.Triangle {
	return geom.Triangle{A: a, B: b, C: c}.Canon()
}

// result snapshots the current mesh over the live vertex set. The edge
// and triangle slice orders are unspecified (map iteration), matching
// the from-scratch assemblers; consumers compare as sets.
func (p *patchMesh) result(live map[int64]*Node) *Result {
	res := &Result{Vertices: make(map[int64]geom.Point3, len(live))}
	for id, n := range live {
		res.Vertices[id] = n.Pos
	}
	res.Edges = make([][2]int64, 0, len(p.edgeCount))
	for e := range p.edgeCount {
		res.Edges = append(res.Edges, e)
	}
	res.Triangles = make([]geom.Triangle, 0, len(p.tris))
	for t := range p.tris {
		res.Triangles = append(res.Triangles, t)
	}
	return res
}
