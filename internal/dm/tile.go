package dm

import (
	"fmt"
	"math"
	"slices"

	"dmesh/internal/geom"
	"dmesh/internal/obs"
)

// TilePatch is a self-contained materialization of one cache tile: the
// answer to the uniform query Q(Rect, E) restricted to the tile footprint,
// stored in a form that lets StitchTiles assemble the answer to any ROI
// covered by a set of patches at the same E without touching the store
// again. It holds the live nodes, the intra-tile edges (connection pairs
// whose endpoints both lie inside the tile), and the out-going connection
// pairs that can become seam edges: those whose far endpoint is live at E
// in some other tile. Triangles are not kept: they are the 3-cliques of the
// edges, and StitchTiles derives them from the merged edge list.
//
// The stitch surface is flat and sorted, in the shape the wire ships it:
// ascending ids with parallel pos, and both pair lists as runs of equal
// first endpoint. A store-materialized patch and a decoded one carry it
// identically; only the former also has Nodes.
//
// A patch is immutable once materialized; it may be shared by any number
// of concurrent readers.
type TilePatch struct {
	// Rect is the tile footprint in the (x, y) plane (boundary inclusive,
	// like every range query in the store).
	Rect geom.Rect
	// E is the discrete LOD the patch is materialized at.
	E float64
	// Nodes holds the fetched record of every node whose position lies
	// inside Rect and whose LOD interval contains E — exactly the live set
	// of Q(Rect, E) — as a record set: ascending by ID, parallel to ids.
	// Nil on a decoded patch (the records stay on the shard); NumNodes
	// counts either kind.
	Nodes []Node

	// ids lists the live node IDs ascending; pos[i] is ids[i]'s position.
	ids []int64
	pos []geom.Point3
	// edges are the intra-tile connection pairs (a, b), a < b, with both
	// endpoints in ids, ascending.
	edges pairRuns
	// outPairs are the seam candidates: connection pairs (a, c) with a in
	// ids and c not, kept only when c is live at E — it then lies in
	// another tile. A stitch keeps a pair only when both ends are vertices
	// of an answer at E, so the rest (98-99 % of them, c being live at some
	// other LOD of a's interval) can never become an edge.
	outPairs pairRuns
	// dropped counts the out-pairs the live set filtered away.
	dropped int
	// charge is Bytes(), fixed when the patch is made.
	charge int

	// FetchedRecords is how many node records the materializing range
	// query read (the I/O the patch cost, in records).
	FetchedRecords int
}

// pairRuns is a pair list sorted by (a, b), held as the wire codes it: one
// run per distinct first endpoint, the far endpoints of all runs
// back to back — 8 bytes a pair, the head stored once.
type pairRuns struct {
	runs []pairRun
	far  []int64
}

// pairRun is one run: head paired with far[previous run's end : end].
type pairRun struct {
	head int64
	end  int
}

// pairCount sizes a pairRuns exactly before it is filled.
type pairCount struct{ runs, pairs int }

func (n pairCount) alloc() pairRuns {
	return pairRuns{runs: make([]pairRun, 0, n.runs), far: make([]int64, 0, n.pairs)}
}

// add appends the pair (head, far); heads must arrive in ascending order.
func (p *pairRuns) add(head, far int64) {
	p.far = append(p.far, far)
	if n := len(p.runs); n > 0 && p.runs[n-1].head == head {
		p.runs[n-1].end = len(p.far)
	} else {
		p.runs = append(p.runs, pairRun{head, len(p.far)})
	}
}

// Bytes is the patch's size in the unit the tile cache budgets: node
// header + connection IDs + mesh slices at 16 bytes a pair and 24 a
// triangle, over the census MaterializeTile took before it filtered —
// every out-pair, the dropped ones included, and the intra-tile triangles,
// which the patch does not hold (a decoded patch charges the arrays it has).
// It is the input of every eviction decision, so it is frozen at this
// formula (see DESIGN.md §9) although the run form holds a pair in 8
// bytes, a patch holds a fraction of the out-pairs and no triangle is
// resident: real residency is below the estimate.
func (tp *TilePatch) Bytes() int { return tp.charge }

// patchCharge is the frozen formula behind Bytes.
func patchCharge(nodes, conn, edges, tris, outPairs int) int {
	const nodeHeader = 96 // frozen: what a node was charged when Nodes was a map
	return nodeHeader*nodes + 8*conn + 16*edges + 24*tris + 16*outPairs
}

// NumNodes returns the live node count, of a store-materialized or a
// decoded patch alike.
func (tp *TilePatch) NumNodes() int { return len(tp.ids) }

// OutPairs reports the seam census: the out-pairs the patch holds, and how
// many more materialization dropped because their far endpoint is not live
// at E (0 on a decoded patch, which does not carry the count).
func (tp *TilePatch) OutPairs() (kept, dropped int) { return len(tp.outPairs.far), tp.dropped }

// MaterializeTile answers Q(r, e) like ViewpointIndependent but returns
// the result as a TilePatch: live nodes plus the intra-tile edges and the
// out-going connection pairs needed to stitch the patch against its
// neighbors. One range query, same I/O as the direct uniform query over r.
// e must be a rung of the store's ladder (Rungs); any other LOD is an
// error before a page is read.
func (s *Store) MaterializeTile(r geom.Rect, e float64) (*TilePatch, error) {
	alive, err := s.rungs.at(e)
	if err != nil {
		return nil, err
	}
	s.tr.Begin(obs.PhaseMaterialize)
	defer s.tr.End()
	f := s.newFetcher()
	nf, err := f.fetchBoxes([]geom.Box{s.cube(r, e, e)})
	if err != nil {
		return nil, err
	}
	s.tr.Begin(obs.PhaseTriangulate)
	defer s.tr.End()
	// The fetcher is done with its slab: compact it to the live records.
	live := slices.DeleteFunc(f.fetched(), func(n Node) bool { return !n.Interval().Contains(e) })
	ids, pos, conn := make([]int64, len(live)), make([]geom.Point3, len(live)), 0
	for i := range live {
		ids[i], pos[i] = live[i].ID, live[i].Pos
		conn += len(live[i].Conn)
	}
	tp := &TilePatch{Rect: r, E: e, Nodes: live, FetchedRecords: nf, ids: ids, pos: pos}
	// Everything but the patch itself is pooled scratch.
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	idx := sc.indexIDs(ids)
	// A pair's far end is another node of the tile (an edge, counted from
	// its lower end), live at e elsewhere (an out-pair), or not live at e —
	// which one bit of the rung's live set says before any lookup. Two
	// passes, so that a patch the cache may hold for hours holds no slack:
	// the first looks every live far end up once, remembers where, and
	// sizes both pair lists; the second fills them. Ascending IDs x their
	// ascending connection lists emit both (and the packed edges the
	// charge's triangle count comes from) in order.
	where := resize(sc.where, min(conn, 8*len(ids)))[:0] // a node has ~6 live neighbours
	var nEdges, nOut pairCount
	for i := range live {
		edges, out := 0, 0
		for _, c := range live[i].Conn {
			if !alive.has(c) {
				tp.dropped++
				continue
			}
			j := idx.lookup(c)
			where = append(where, int32(j))
			if j < 0 {
				out++
			} else if j > i {
				edges++
			}
		}
		if edges > 0 {
			nEdges.runs, nEdges.pairs = nEdges.runs+1, nEdges.pairs+edges
		}
		if out > 0 {
			nOut.runs, nOut.pairs = nOut.runs+1, nOut.pairs+out
		}
	}
	sc.where = where
	tp.edges, tp.outPairs = nEdges.alloc(), nOut.alloc()
	packed := resize(sc.pairs, nEdges.pairs)[:0]
	k := 0
	for i, id := range ids {
		for _, c := range live[i].Conn {
			if !alive.has(c) {
				continue
			}
			j := int(where[k])
			k++
			if j < 0 {
				tp.outPairs.add(id, c)
			} else if j > i {
				tp.edges.add(id, c)
				packed = append(packed, packEdge(i, j))
			}
		}
	}
	sc.pairs = packed
	// The charge still counts the intra-tile triangles, enumerated into
	// scratch only to be counted: Bytes is frozen.
	sc.tris = sc.cliques(sc.tris[:0], packed, ids)
	tp.charge = patchCharge(len(ids), conn, nEdges.pairs, len(sc.tris), nOut.pairs+tp.dropped)
	return tp, nil
}

// StitchTiles assembles the answer to Q(r, e) from tile patches whose
// footprints together cover r, all materialized at the same e. The result
// is exactly equal (as vertex/edge/triangle sets) to ViewpointIndependent
// (r, e) on the same store, with zero store I/O, and its Edges and
// Triangles are in ascending order.
//
// Three linear passes over flat arrays. The tiles' ascending ID lists
// merge, clipped to r, into the answer's vertex list (a node on a tile
// boundary, or a tile given twice, lands once). Every pair list then
// resolves against that list through one ID index — a pair survives when
// both ends are vertices of the answer, whichever tile each came from —
// into packed edges, sorted and deduplicated (a cross-tile pair is recorded
// by both sides). The triangles are the 3-cliques of that edge list; a
// tile carries none, since a triangle spanning two or three tiles would be
// in no tile's set, and enumerating all of them costs less than telling
// the two kinds apart.
//
// The working arrays — vertex list, merge cursors, ID index, raw and
// sorted edges — come from scratchPool for the length of the call, so a
// warm stitch allocates only the Result, which holds no tile's memory:
// the tiles may be recycled as soon as it returns.
func StitchTiles(r geom.Rect, e float64, tiles []*TilePatch) (*Result, error) {
	return StitchTilesTraced(r, e, tiles, nil)
}

// StitchTilesTraced is StitchTiles emitting phase spans on tr (which may
// be nil): the whole stitch under one stitch span, with the resolution of
// the seam out-pairs and the merge into the edge list itemized as a
// seam-closure child.
func StitchTilesTraced(r geom.Rect, e float64, tiles []*TilePatch, tr *obs.Trace) (*Result, error) {
	tr.Begin(obs.PhaseStitch)
	defer tr.End()
	nVerts := 0 // vertices inside r, counting a shared one once per tile
	for _, tp := range tiles {
		if tp == nil {
			return nil, fmt.Errorf("dm: stitch: nil tile patch")
		}
		if tp.E != e {
			return nil, fmt.Errorf("dm: stitch: tile %v materialized at LOD %g, want %g", tp.Rect, tp.E, e)
		}
		for _, p := range tp.pos {
			if r.ContainsPoint(p.XY()) {
				nVerts++
			}
		}
	}
	if nVerts > math.MaxInt32 {
		return nil, fmt.Errorf("dm: stitch: %d vertices exceed the mesh index range", nVerts)
	}

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	// Pass 1: k-way merge of the ID lists, clipped to the true ROI.
	res := &Result{Vertices: make(map[int64]geom.Point3, nVerts), Strips: len(tiles)}
	ids := resize(sc.ids, nVerts)[:0]
	cur := resize(sc.cur, len(tiles))
	clear(cur)
	for {
		next, from := int64(math.MaxInt64), -1
		for t, tp := range tiles {
			c := cur[t]
			for c < len(tp.ids) && !r.ContainsPoint(tp.pos[c].XY()) {
				c++
			}
			cur[t] = c
			if c < len(tp.ids) && (from < 0 || tp.ids[c] < next) {
				next, from = tp.ids[c], t
			}
		}
		if from < 0 {
			break
		}
		ids = append(ids, next)
		res.Vertices[next] = tiles[from].pos[cur[from]]
		for t, tp := range tiles {
			if c := cur[t]; c < len(tp.ids) && tp.ids[c] == next {
				cur[t]++
			}
		}
	}

	sc.ids, sc.cur = ids, cur

	// Pass 2: every pair list against the merged vertex list.
	idx := sc.indexIDs(ids)
	edges := resize(sc.pairs, 4*len(ids))[:0]
	for _, tp := range tiles {
		edges = idx.resolve(edges, tp.edges)
	}
	tr.Begin(obs.PhaseSeam)
	for _, tp := range tiles {
		edges = idx.resolve(edges, tp.outPairs)
	}
	sc.pairs = edges
	edges = sc.sortEdges(edges, len(ids))
	tr.End()

	// Pass 3: the sorted edge list is the mesh.
	res.Edges = unpackEdges(edges, ids)
	res.Triangles = sc.cliques(make([]geom.Triangle, 0, 2*len(ids)), edges, ids) // a planar mesh has < 2V faces
	return res, nil
}

// resolve appends to edges, packed, the pairs of p whose both endpoints
// are indexed. A run's head is probed once: a head clipped away by the ROI
// takes its whole run with it. An endpoint no tile lists is outside the
// ROI's cover.
func (x *idIndex) resolve(edges []uint64, p pairRuns) []uint64 {
	lo := 0
	for _, run := range p.runs {
		far := p.far[lo:run.end]
		lo = run.end
		u := x.lookup(run.head)
		if u < 0 {
			continue
		}
		for _, c := range far {
			if v := x.lookup(c); v >= 0 && v != u {
				edges = append(edges, packEdge(u, v))
			}
		}
	}
	return edges
}
