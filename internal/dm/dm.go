// Package dm implements Direct Mesh, the paper's contribution: a
// multiresolution triangular mesh representation that supports identifying
// and fetching query results directly from the database with a general-
// purpose spatial index, instead of traversing the MTM tree.
//
// A Direct Mesh node is a Progressive Mesh node (point, LOD interval,
// parent/children/wings) extended with its connection list: the IDs of the
// points with a similar LOD (overlapping LOD intervals) that it can be
// connected to in some approximation. The store records that whole tuple; a
// fetched Node holds only what reconstruction reads — point, interval,
// parent and list. In (x, y, e) space each node
// is the vertical segment <(x, y, eLow), (x, y, eHigh)>; a 3D R*-tree over
// those segments turns a viewpoint-independent query Q(M, r, e) into a
// single range query with the degenerate box r x [e, e] (Section 5.1), and
// viewpoint-dependent queries into one (single-base, Section 5.2) or
// several (multi-base, Section 5.3) cube queries hugging the query plane.
// Connectivity is reconstructed from connection lists alone — no ancestor
// fetches.
package dm

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"

	"dmesh/internal/geom"
	"dmesh/internal/obs"
	"dmesh/internal/pm"
	"dmesh/internal/rtree"
	"dmesh/internal/simplify"
	"dmesh/internal/storage/heapfile"
)

// Node is one Direct Mesh node as queries hold it: what reconstruction
// reads and nothing else — 80 bytes. The packed record holds exactly
// this. The fixed record (LayoutSTR) also carries the node's children and
// wings, the paper's tuple: its writer takes them from the PM tree
// (Dataset.links) and its decoder reads them and keeps none. Neither
// record stores the PM node's raw error or footprint.
type Node struct {
	ID  int64
	Pos geom.Point3
	// ELow and EHigh bound the LOD interval: the node is in the
	// approximation at LOD e exactly when ELow <= e < EHigh (+Inf for
	// roots).
	ELow, EHigh float64
	// Parent is the parent's ID, pm.None for a root: the lifted assembler
	// walks it to a cut node's live representative.
	Parent int64
	// Conn lists the IDs of this node's similar-LOD connection points,
	// sorted ascending.
	Conn []int64
}

// Interval returns the node's LOD interval.
func (n *Node) Interval() geom.Interval { return geom.Interval{Low: n.ELow, High: n.EHigh} }

// Dataset is the in-memory Direct Mesh: the normalized PM tree plus the
// connection lists gathered during simplification.
type Dataset struct {
	Tree *pm.Tree
	Conn [][]int64
}

// FromSequence builds the Direct Mesh dataset from a collapse sequence.
func FromSequence(seq *simplify.Sequence) (*Dataset, error) {
	tree, err := pm.FromSequence(seq)
	if err != nil {
		return nil, fmt.Errorf("dm: %w", err)
	}
	if len(seq.ConnLists) != len(tree.Nodes) {
		return nil, fmt.Errorf("dm: %d connection lists for %d nodes", len(seq.ConnLists), len(tree.Nodes))
	}
	return &Dataset{Tree: tree, Conn: seq.ConnLists}, nil
}

// Node materializes node id with its connection list.
func (d *Dataset) Node(id int64) Node {
	p := &d.Tree.Nodes[id]
	return Node{ID: p.ID, Pos: p.Pos, ELow: p.ELow, EHigh: p.EHigh, Parent: p.Parent, Conn: d.Conn[id]}
}

// links returns the references node id's fixed record (LayoutSTR)
// carries beyond Node: Child1, Child2, Wing1, Wing2, in record order.
func (d *Dataset) links(id int64) [4]int64 {
	p := &d.Tree.Nodes[id]
	return [4]int64{p.Child1, p.Child2, p.Wing1, p.Wing2}
}

// MaxE returns the dataset's maximum LOD value.
func (d *Dataset) MaxE() float64 { return d.Tree.MaxE }

// UniformCut returns the IDs of the nodes forming the approximation at LOD
// e over the whole terrain: exactly the nodes whose LOD interval contains
// e. This in-memory form is the ground truth for store queries.
func (d *Dataset) UniformCut(e float64) []int64 {
	var out []int64
	for i := range d.Tree.Nodes {
		if d.Tree.Nodes[i].Interval().Contains(e) {
			out = append(out, int64(i))
		}
	}
	return out
}

// Result is the outcome of a Direct Mesh query: the approximation mesh
// plus retrieval statistics. Disk-access counts are read from the store's
// pagers (Store.DiskAccesses).
type Result struct {
	// Vertices maps vertex ID to its 3D position.
	Vertices map[int64]geom.Point3
	// Edges holds each mesh edge once, with Edges[i][0] < Edges[i][1],
	// in ascending (ID, ID) order.
	Edges [][2]int64
	// Triangles holds the triangulation as canonical vertex triples
	// (A < B < C), in ascending (A, B, C) order. Every producer of a
	// Result emits both slices in that order, so equal meshes are equal
	// slices.
	Triangles []geom.Triangle
	// FetchedRecords is how many node records the query retrieved
	// (including records fetched but filtered out of the approximation).
	FetchedRecords int
	// Strips is the number of query cubes executed (1 for viewpoint-
	// independent and single-base queries).
	Strips int
}

// assemble builds the approximation a record set holds where need(x, y)
// is the LOD required at (x, y): the cut is every record whose LOD interval
// contains the requirement at its own position, and its mesh comes from
// connection lists alone — Direct Mesh's core claim is that this needs no
// data beyond the fetched records. It is the one place liveness is decided
// and the one assembler behind every query kind and coherent frame.
//
// With lift set (an adaptive, viewpoint-dependent cut) recs also holds the
// cut's ancestors near the plane, and a connection pair (a, b) lifts to the
// edge (rep(a), rep(b)) where rep walks parent pointers up to the first
// live node; pairs whose chains leave the record set are dropped (their
// witnesses lie outside the query cube, the connectivity the paper notes
// cannot be kept without storing all-LOD lists). Without it (a uniform
// cut) a record off the cut represents nothing, so edges are the pairs
// with both ends live, and ascending records x their ascending connection
// lists emit them already sorted.
//
// Everything but the Result is pooled scratch, so a warm assemble
// allocates only what it returns.
func (s *Store) assemble(recs []Node, need func(x, y float64) float64, lift bool) *Result {
	s.tr.Begin(obs.PhaseTriangulate)
	defer s.tr.End()
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	// reps holds, per record, the position in ids of its live
	// representative: itself when live, memoized by rep otherwise.
	l := lifter{recs: recs, reps: resize(sc.reps, len(recs))}
	sc.reps = l.reps
	fids := resize(sc.fids, len(recs))
	sc.fids = fids
	n := 0
	for p := range recs {
		r := &recs[p]
		fids[p] = r.ID
		switch {
		case r.Interval().Contains(need(r.Pos.X, r.Pos.Y)):
			l.reps[p] = repLive
			n++
		case lift:
			l.reps[p] = repUnknown
		default:
			l.reps[p] = repNone
		}
	}
	ids := resize(sc.ids, n)[:0]
	res := &Result{Vertices: make(map[int64]geom.Point3, n)}
	for p := range recs {
		if l.reps[p] == repLive {
			l.reps[p] = int32(len(ids))
			ids = append(ids, recs[p].ID)
			res.Vertices[recs[p].ID] = recs[p].Pos
		}
	}
	sc.ids = ids
	l.fidx = sc.indexIDs(fids)
	// Connection lists are symmetric, so each pair is visited from its
	// lower endpoint only.
	edges := resize(sc.pairs, 3*n)[:0]
	for p := range recs {
		ra := l.rep(p)
		if ra < 0 {
			continue
		}
		for _, c := range recs[p].Conn {
			if c <= recs[p].ID {
				continue
			}
			q := l.fidx.lookup(c)
			if q < 0 {
				continue
			}
			if rb := l.rep(q); rb >= 0 && rb != ra {
				edges = append(edges, packEdge(int(ra), int(rb)))
			}
		}
	}
	sc.pairs = edges
	if lift {
		// Many pairs lift to the same edge, in no particular order.
		edges = sc.sortEdges(edges, n)
	}
	res.Edges = unpackEdges(edges, ids)
	res.Triangles = sc.cliques(make([]geom.Triangle, 0, 2*len(ids)), edges, ids) // a planar mesh has < 2V faces
	return res
}

// A record's entry in lifter.reps: the position of its live representative
// in the cut's ID list, or one of these.
const repLive, repUnknown, repUnresolved, repNone = -4, -3, -2, -1

// lifter resolves records to their live representatives for assemble.
type lifter struct {
	recs []Node
	reps []int32
	fidx idIndex
}

// rep returns the representative of recs[p], memoized: the nearest live
// ancestor in the record set, repNone (or repUnresolved, on a parent cycle
// only a corrupt store holds) when the chain leaves the set first.
func (l *lifter) rep(p int) int32 {
	if r := l.reps[p]; r != repUnknown {
		return r
	}
	l.reps[p] = repUnresolved // cycle guard; overwritten below
	r := int32(repNone)
	if parent := l.recs[p].Parent; parent != pm.None {
		if pp := l.fidx.lookup(parent); pp >= 0 {
			r = l.rep(pp)
		}
	}
	l.reps[p] = r
	return r
}

// scratch is the working memory of one fetchBoxes, fetchEach, assemble,
// fetched, MaterializeTile or StitchTiles call: every buffer each needs
// that the Result, the record set or the patch does not keep. It comes
// from scratchPool and goes back when the call returns, holding no pointer
// into a record set or a page (merge is cleared first; the search's lists
// hold RIDs, box numbers and the R*-tree's boxes and refs). A coherent
// session keeps none of its own — 64 cameras would hold ≈ 300 KB each
// between frames for what the pool lends for the length of a call.
type scratch struct {
	rids  []heapfile.RID  // the search's RID list, box-major once regrouped
	spare []heapfile.RID  // the regroup's second RID buffer, swapped with rids
	boxOf []int32         // boxOf[i] is the query box rids[i] matched, while search regroups
	next  []int           // the regroup's counts, then each box's next slot
	rt    rtree.Scratch   // the R*-tree descent's stacks
	reps  []int32         // assemble's live representatives, per record
	fids  []int64         // assemble's record IDs, indexed by slots
	ids   []int64         // assemble's cut and the stitch's vertex list, ascending
	cur   []int           // the stitch's merge cursors, one per tile
	slots []int32         // indexIDs' table
	where []int32         // MaterializeTile's lookup of every candidate pair
	pairs []uint64        // raw pairs: assemble's, possibly lifted, the stitch's and MaterializeTile's
	edges []uint64        // sortEdges' output
	off   []int           // sortEdges' and cliques' run offsets
	tris  []geom.Triangle // MaterializeTile's triangles, only counted
	keys  []uint64        // fetched's sort keys over the arrivals
	merge []Node          // fetched's arrivals, gathered in ID order
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// resize returns s with length n, reusing its memory when it can; the
// contents are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// sortedIDs returns the keys of m in ascending order.
func sortedIDs[V any](m map[int64]V) []int64 {
	ids := make([]int64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// idIndex answers "which position does this ID hold in an ascending ID
// list" in O(1): an open-addressing table (linear probing, load <= 1/2) of
// positions into the list itself. Its memory is bounded by the number of
// IDs, never by an ID's value — IDs arriving in a decoded tile patch are
// attacker-controlled up to MaxInt64 — and the hash is seeded per process
// so that crafted IDs cannot line up one probe chain.
type idIndex struct {
	ids   []int64
	slots []int32 // position + 1; 0 marks an empty slot
	shift uint
}

var idIndexSeed = rand.Uint64()

// indexIDs indexes ids, which must be strictly ascending, with the table
// in sc's memory: valid until sc indexes again. Positions are held (here
// and in packed edges) as 32-bit halves, so len(ids) must not exceed
// MaxInt32: callers fed by untrusted input check before calling, and a
// store query cannot hold that many records in memory.
func (sc *scratch) indexIDs(ids []int64) idIndex {
	if len(ids) > math.MaxInt32 {
		panic("dm: more than MaxInt32 live vertices in one mesh")
	}
	bitsN := bits.Len(uint(2*len(ids)) | 1)
	sc.slots = resize(sc.slots, 1<<bitsN)
	clear(sc.slots)
	x := idIndex{ids: ids, slots: sc.slots, shift: uint(64 - bitsN)}
	for i, id := range ids {
		s := x.home(id)
		for x.slots[s] != 0 {
			s = (s + 1) & (len(x.slots) - 1)
		}
		x.slots[s] = int32(i + 1)
	}
	return x
}

func (x *idIndex) home(id int64) int {
	return int((uint64(id) ^ idIndexSeed) * 0x9E3779B97F4A7C15 >> x.shift)
}

// lookup returns id's position in the indexed list, or -1.
func (x *idIndex) lookup(id int64) int {
	for s := x.home(id); ; s = (s + 1) & (len(x.slots) - 1) {
		p := x.slots[s]
		if p == 0 {
			return -1
		}
		if x.ids[p-1] == id {
			return int(p - 1)
		}
	}
}

// A packed edge is a pair of positions (u, v), u < v, into an ascending
// ID list, held as u<<32 | v: integer order on packed edges is (u, v)
// order, which — the list being ascending — is (ID, ID) order.
func packEdge(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// unpackEdges spells packed edges out as ID pairs, order kept.
func unpackEdges(edges []uint64, ids []int64) [][2]int64 {
	out := make([][2]int64, len(edges))
	for i, e := range edges {
		out[i] = [2]int64{ids[e>>32], ids[uint32(e)]}
	}
	return out
}

// edgeOffsets counts packed edges over n vertices by first endpoint into
// off's memory: once the edges are sorted, u's run is edges[off[u]:off[u+1]].
func edgeOffsets(edges []uint64, n int, off []int) []int {
	off = resize(off, n+1)
	clear(off)
	for _, e := range edges {
		off[e>>32+1]++
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	return off
}

// sortEdges sorts packed edges over n vertices ascending and drops
// duplicates, in O(len(edges) + n): a counting sort on the first endpoint
// leaves each vertex's handful of forward neighbours contiguous, and those
// short runs are sorted in place. The result is in sc's memory, valid
// until sc sorts again.
func (sc *scratch) sortEdges(edges []uint64, n int) []uint64 {
	off := edgeOffsets(edges, n, sc.off)
	out := resize(sc.edges, len(edges))
	sc.off, sc.edges = off, out
	for _, e := range edges {
		out[off[e>>32]] = e
		off[e>>32]++
	}
	// off[u] is now the end of u's run (the start of u+1's).
	w, lo := 0, 0
	for u := 0; u < n; u++ {
		run := out[lo:off[u]]
		lo = off[u]
		slices.Sort(run)
		for i, e := range run {
			if i == 0 || e != run[i-1] {
				out[w] = e
				w++
			}
		}
	}
	return out[:w]
}

// cliques enumerates the 3-cliques of a graph — the triangles of the
// reconstructed approximation — given its edges packed, strictly
// ascending, over the ascending vertex list ids. The sorted edge list is
// its own forward adjacency: the neighbours v > u of u are the run of
// edges starting with u, so the triangles u < v < w on edge (u, v) are the
// merge-intersection of the rest of u's run with v's run. Triangles are
// appended to tris as ID triples in ascending (A, B, C) order; the run
// offsets live in sc's memory.
func (sc *scratch) cliques(tris []geom.Triangle, edges []uint64, ids []int64) []geom.Triangle {
	off := edgeOffsets(edges, len(ids), sc.off)
	sc.off = off
	for i, e := range edges {
		u, v := e>>32, uint64(uint32(e))
		us, vs := edges[i+1:off[u+1]], edges[off[v]:off[v+1]]
		for j, k := 0, 0; j < len(us) && k < len(vs); {
			a, b := uint32(us[j]), uint32(vs[k])
			switch {
			case a < b:
				j++
			case a > b:
				k++
			default:
				tris = append(tris, geom.Triangle{A: ids[u], B: ids[v], C: ids[a]})
				j++
				k++
			}
		}
	}
	return tris
}
