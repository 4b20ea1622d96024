package dm

import (
	"fmt"
	"sort"

	"dmesh/internal/geom"
	"dmesh/internal/obs"
)

// TilePatch is a self-contained materialization of one cache tile: the
// answer to the uniform query Q(Rect, E) restricted to the tile footprint,
// stored in a form that lets StitchTiles assemble the answer to any ROI
// covered by a set of patches at the same E without touching the store
// again. It holds the live nodes (with their connection lists), the
// intra-tile mesh (edges and triangles whose endpoints all lie inside the
// tile), and the out-going connection pairs whose far endpoint is not a
// live node of this tile — the stitching seams.
//
// A patch is immutable once materialized; it may be shared by any number
// of concurrent readers.
type TilePatch struct {
	// Rect is the tile footprint in the (x, y) plane (boundary inclusive,
	// like every range query in the store).
	Rect geom.Rect
	// E is the discrete LOD the patch is materialized at.
	E float64
	// Nodes holds every node whose position lies inside Rect and whose
	// LOD interval contains E — exactly the live set of Q(Rect, E).
	Nodes map[int64]*Node

	// edges and tris are the intra-tile mesh: connection pairs (and the
	// 3-cliques they close) with both endpoints in Nodes. Sorted for
	// deterministic patch content.
	edges [][2]int64
	tris  []geom.Triangle
	// outPairs are connection pairs (a, c) with a in Nodes and c not: c
	// lies in a neighboring tile, or is not live at E. Stitching resolves
	// them against the combined live set.
	outPairs [][2]int64

	// FetchedRecords is how many node records the materializing range
	// query read (the I/O the patch cost, in records).
	FetchedRecords int
}

// Bytes estimates the resident size of the patch in bytes — the unit the
// tile cache budgets. The estimate is deterministic and intentionally
// simple: node header + connection IDs + mesh slices.
func (tp *TilePatch) Bytes() int {
	const nodeHeader = 96 // pm.Node fields + map overhead, rounded
	b := 0
	for _, n := range tp.Nodes {
		b += nodeHeader + 8*len(n.Conn)
	}
	b += 16 * len(tp.edges)
	b += 24 * len(tp.tris)
	b += 16 * len(tp.outPairs)
	return b
}

// NumEdges returns the intra-tile edge count (diagnostics).
func (tp *TilePatch) NumEdges() int { return len(tp.edges) }

// NumOutPairs returns the seam pair count (diagnostics).
func (tp *TilePatch) NumOutPairs() int { return len(tp.outPairs) }

// MaterializeTile answers Q(r, e) like ViewpointIndependent but returns
// the result as a TilePatch: live nodes plus the intra-tile mesh and the
// out-going connection pairs needed to stitch the patch against its
// neighbors. One range query, same I/O as the direct uniform query over r.
func (s *Store) MaterializeTile(r geom.Rect, e float64) (*TilePatch, error) {
	s.tr.Begin(obs.PhaseMaterialize)
	defer s.tr.End()
	fetchE := e
	if fetchE > s.maxE {
		fetchE = s.maxE
	}
	f := s.newFetcher()
	nf, err := f.fetchBox(geom.BoxFromRect(r, fetchE, fetchE))
	if err != nil {
		return nil, err
	}
	fetched := f.fetched()
	s.tr.Begin(obs.PhaseTriangulate)
	defer s.tr.End()
	live := make(map[int64]*Node, len(fetched))
	for id, n := range fetched {
		if n.Interval().Contains(e) {
			live[id] = n
		}
	}
	tp := &TilePatch{Rect: r, E: e, Nodes: live, FetchedRecords: nf}
	adj := make(map[int64][]int64, len(live))
	for id, n := range live {
		for _, c := range n.Conn {
			if _, ok := live[c]; ok {
				if c > id { // count each intra pair once
					tp.edges = append(tp.edges, [2]int64{id, c})
					adj[id] = append(adj[id], c)
					adj[c] = append(adj[c], id)
				}
			} else {
				tp.outPairs = append(tp.outPairs, [2]int64{id, c})
			}
		}
	}
	tp.tris = trianglesFromAdjacency(adj)
	sortEdgeSlice(tp.edges)
	sortEdgeSlice(tp.outPairs)
	sortTriSlice(tp.tris)
	return tp, nil
}

func sortEdgeSlice(es [][2]int64) {
	sort.Slice(es, func(i, j int) bool {
		if es[i][0] != es[j][0] {
			return es[i][0] < es[j][0]
		}
		return es[i][1] < es[j][1]
	})
}

func sortTriSlice(ts []geom.Triangle) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		if a.A != b.A {
			return a.A < b.A
		}
		if a.B != b.B {
			return a.B < b.B
		}
		return a.C < b.C
	})
}

// StitchTiles assembles the answer to Q(r, e) from tile patches whose
// footprints together cover r, all materialized at the same e. The result
// is exactly equal (as vertex/edge/triangle sets) to ViewpointIndependent
// (r, e) on the same store, with zero store I/O.
//
// The stitch walks connection lists across tile seams: interior tiles
// (footprint fully inside r) contribute their precomputed mesh wholesale;
// boundary tiles are clipped edge by edge; out-going pairs resolve
// against the combined live set, closing cross-tile triangles through the
// patch-mesh common-neighbor walk; a final sweep over nodes shared by
// several tiles closes the corner triangles whose every edge was
// bulk-merged from a different tile.
func StitchTiles(r geom.Rect, e float64, tiles []*TilePatch) (*Result, error) {
	return StitchTilesTraced(r, e, tiles, nil)
}

// StitchTilesTraced is StitchTiles emitting phase spans on tr (which may
// be nil): the whole stitch under one stitch span, with the seam
// resolution and corner sweep itemized as a seam-closure child.
func StitchTilesTraced(r geom.Rect, e float64, tiles []*TilePatch, tr *obs.Trace) (*Result, error) {
	tr.Begin(obs.PhaseStitch)
	defer tr.End()
	nNodes := 0
	for _, tp := range tiles {
		if tp == nil {
			return nil, fmt.Errorf("dm: stitch: nil tile patch")
		}
		if tp.E != e {
			return nil, fmt.Errorf("dm: stitch: tile %v materialized at LOD %g, want %g", tp.Rect, tp.E, e)
		}
		nNodes += len(tp.Nodes)
	}
	live := make(map[int64]*Node, nNodes)
	shared := make(map[int64]struct{})
	for _, tp := range tiles {
		for id, n := range tp.Nodes {
			if !r.ContainsPoint(n.Pos.XY()) {
				continue // clip to the true ROI
			}
			if _, ok := live[id]; ok {
				shared[id] = struct{}{} // tile-boundary node, seen before
				continue
			}
			live[id] = n
		}
	}

	p := newPatchMesh()
	// Interior tiles: every node is inside r, so the precomputed mesh
	// merges without per-edge liveness checks or closure walks.
	for _, tp := range tiles {
		if !r.ContainsRect(tp.Rect) {
			continue
		}
		for _, ed := range tp.edges {
			if p.edgeCount[ed] == 0 { // duplicate on a shared tile boundary
				p.edgeCount[ed] = 1
				p.link(ed[0], ed[1])
				p.link(ed[1], ed[0])
			}
		}
		for _, tr := range tp.tris {
			p.tris[tr] = struct{}{}
		}
	}
	// addLive inserts a pair list's edges incrementally: both endpoints
	// must have survived the ROI clip, and the patch-mesh addEdge walk
	// closes every triangle the new edge completes against the mesh built
	// so far. The lists are sorted by first endpoint, so its liveness is
	// probed once per run of equal a, not once per pair.
	addLive := func(pairs [][2]int64) {
		for i := 0; i < len(pairs); {
			a := pairs[i][0]
			_, aLive := live[a]
			for ; i < len(pairs) && pairs[i][0] == a; i++ {
				if !aLive {
					continue
				}
				if _, ok := live[pairs[i][1]]; !ok {
					continue
				}
				k := edgeKey(a, pairs[i][1])
				if p.edgeCount[k] == 0 {
					p.inc(k)
				}
			}
		}
	}
	// Boundary tiles: the ROI edge cuts through them, so their intra
	// edges are re-checked against the clipped live set.
	for _, tp := range tiles {
		if !r.ContainsRect(tp.Rect) {
			addLive(tp.edges)
		}
	}
	// Seams: out-going pairs of every tile, resolved against the combined
	// live set (each cross-tile pair is recorded by both sides; the edge
	// set dedups).
	tr.Begin(obs.PhaseSeam)
	for _, tp := range tiles {
		addLive(tp.outPairs)
	}
	// Corner sweep: a triangle whose three edges were each bulk-merged
	// from a different interior tile is in no tile's triangle set and no
	// incremental closure saw it. All its vertices then lie on tile
	// boundaries (each appears in at least two tiles), so walking the
	// shared nodes' neighborhoods finds every such clique.
	for u := range shared {
		for v := range p.adj[u] {
			p.forEachCommonNeighbor(u, v, func(w int64) {
				p.tris[canonTriangle(u, v, w)] = struct{}{}
			})
		}
	}
	tr.End()

	res := p.result(live)
	res.Strips = len(tiles)
	return res, nil
}
