// Package simplify builds a multiresolution collapse sequence from a full-
// resolution terrain mesh by greedy edge collapse, following the paper's
// preprocessing: both evaluation datasets are simplified with Quadric Error
// Metrics (Garland & Heckbert). The vertical-distance error measure
// mentioned in Section 2 of the paper is available as an alternative.
//
// Each collapse replaces two points (child1, child2) with one newly
// generated point, records the two wing points (the points connected to
// both children at collapse time), and assigns the new point an
// approximation error. The resulting Sequence is exactly the information a
// progressive-mesh (PM) binary tree encodes, and is consumed by both
// internal/pm and internal/dm.
//
// While collapsing, the engine also gathers every vertex's lifetime
// neighbors: the set of points it is connected to in any approximation
// along the collapse sequence. These are the "connection points with a
// similar LOD" of Section 4 of the paper and become Direct Mesh connection
// lists. Gathering them here costs O(total collapse degree), whereas
// recovering them afterwards would require replaying the sequence.
package simplify

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"dmesh/internal/geom"
	"dmesh/internal/mesh"
)

// Metric selects the error measure driving collapse ordering.
type Metric int

const (
	// QEM is the Garland-Heckbert quadric error metric (the paper's choice).
	QEM Metric = iota
	// VerticalDistance approximates error as the largest vertical distance
	// from the removed points to the generated point, the simple measure
	// sketched in Section 2 of the paper.
	VerticalDistance
)

// Options configure the simplifier. The zero value is valid: QEM with the
// default boundary weight.
type Options struct {
	Metric Metric
	// BoundaryWeight scales the boundary-preservation quadrics; 0 means the
	// default (100).
	BoundaryWeight float64
}

// NoWing marks an absent wing point.
const NoWing int64 = -1

// Collapse records one edge collapse: Child1 and Child2 merge into the new
// point New located at Pos with approximation error Err. Wing1 and Wing2
// are the points connected to both children when the collapse happened
// (NoWing when absent, e.g. on the terrain boundary).
//
// The record holds no neighbor partition: nothing replays a collapse as a
// vertex split. Direct Mesh answers a query from the records that cover
// it and their connection lists (Sequence.ConnLists), never by splitting
// a coarser mesh.
type Collapse struct {
	New    int64
	Child1 int64
	Child2 int64
	Wing1  int64
	Wing2  int64
	Pos    geom.Point3
	Err    float64
}

// Sequence is a complete collapse history of a mesh: the PM construction
// order from the full-resolution mesh (step 0) to the coarsest
// approximation. Vertex IDs index Positions; IDs below BaseVertices are
// original mesh points, the rest are generated, in collapse order:
// collapse k creates vertex BaseVertices+k.
type Sequence struct {
	BaseVertices int
	Positions    []geom.Point3
	Collapses    []Collapse
	// Roots are the vertices alive after the last collapse (a single
	// element when the mesh collapses to one point, several when the link
	// condition stops simplification early).
	Roots []int64
	// ConnLists[v] lists every vertex v was ever connected to while alive,
	// sorted ascending: the Direct Mesh similar-LOD connection list.
	ConnLists [][]int64
	// InitialAdj is the adjacency of the full-resolution mesh, the start
	// of the collapse replay AdjacencyAtStep performs.
	InitialAdj [][]int64
}

// NumVertices returns the total number of vertex IDs (originals plus
// generated points).
func (s *Sequence) NumVertices() int { return len(s.Positions) }

// edgeKey canonicalizes an undirected edge.
func edgeKey(a, b int64) [2]int64 {
	if a > b {
		a, b = b, a
	}
	return [2]int64{a, b}
}

// ErrNonFinite rejects a mesh with a NaN or infinite coordinate: its edges
// would evaluate to err = NaN, under which the candidate order is no order.
var ErrNonFinite = errors.New("simplify: non-finite position")

// errTooLarge rejects a mesh whose vertex IDs could overflow a heap entry.
var errTooLarge = errors.New("simplify: mesh too large for 32-bit candidate IDs")

// entry is one candidate collapse, u < v. It carries no target position:
// evaluate is a pure function of the endpoints' quadrics and positions, all
// written once when a vertex is created, so the position is recomputed for
// the one candidate per collapse that is used instead of being carried by
// every stale one.
type entry struct {
	err  float64
	u, v int32
}

// less is the total order (err, u, v). An edge is in the heap at most once,
// so keys are distinct and the pop sequence is a function of the heap's
// contents alone — not of its implementation, nor of the order of pushes.
func (a entry) less(b entry) bool {
	if a.err != b.err {
		return a.err < b.err
	}
	if a.u != b.u {
		return a.u < b.u
	}
	return a.v < b.v
}

// edgeHeap is a binary min-heap of entries under less.
type edgeHeap []entry

func (h *edgeHeap) push(e entry) {
	s := append(*h, e)
	i := len(s) - 1
	for i > 0 && e.less(s[(i-1)/2]) {
		s[i] = s[(i-1)/2]
		i = (i - 1) / 2
	}
	s[i] = e
	*h = s
}

func (h *edgeHeap) pop() entry {
	s := *h
	top, last := s[0], s[len(s)-1]
	s = s[:len(s)-1]
	*h = s
	for i := 0; len(s) > 0; {
		c := 2*i + 1
		if c+1 < len(s) && s[c+1].less(s[c]) {
			c++
		}
		if c >= len(s) || !s[c].less(last) {
			s[i] = last
			break
		}
		s[i] = s[c]
		i = c
	}
	return top
}

// work counts what one Run did, for TestWorkPerCollapseDoesNotGrow.
type work struct {
	pushes, pops, stale         int // heap traffic; stale = popped with a dead endpoint
	deferrals, retries, visited int // link-condition failures, their retries, list entries looked at
}

// Run simplifies m all the way down (or until no collapse satisfies the
// link condition) and returns the collapse sequence. The input mesh is not
// modified.
func Run(m *mesh.Mesh, opts Options) (*Sequence, error) {
	seq, _, err := run(m, opts)
	return seq, err
}

func run(m *mesh.Mesh, opts Options) (*Sequence, work, error) {
	var wk work
	if err := m.CheckManifold(); err != nil {
		return nil, wk, fmt.Errorf("simplify: input mesh invalid: %w", err)
	}
	base := len(m.Positions)
	if 2*base > math.MaxInt32 { // every collapse adds one ID: fewer than 2*base in all
		return nil, wk, fmt.Errorf("%w: %d vertices", errTooLarge, base)
	}
	for i, p := range m.Positions {
		if p.Sub(p) != (geom.Point3{}) { // x-x is NaN exactly when x is NaN or Inf
			return nil, wk, fmt.Errorf("%w: vertex %d at %v", ErrNonFinite, i, p)
		}
	}
	if opts.BoundaryWeight == 0 {
		opts.BoundaryWeight = 100
	}
	seq := &Sequence{
		BaseVertices: base,
		Positions:    append([]geom.Point3(nil), m.Positions...),
	}

	// The full-resolution adjacency is recorded for replay and seeds the
	// connection lists and adj, the live adjacency: flat lists indexed by
	// vertex ID, nil = dead or unused, membership a linear scan (degrees stay
	// near 6). The order inside a list reaches nothing that is recorded:
	// wings, nbrs and ConnLists are sorted before they are stored, and
	// the heap's pop order does not depend on push order.
	seq.InitialAdj = m.Adjacency()
	seq.ConnLists = make([][]int64, base, 2*base)
	adj := make([][]int64, base, 2*base)
	alive := make([]bool, base, 2*base)
	liveCount := 0
	for v, l := range seq.InitialAdj {
		if l != nil {
			adj[v], seq.ConnLists[v] = slices.Clone(l), slices.Clone(l)
			alive[v] = true
			liveCount++
		}
	}

	// Per-vertex quadrics from triangle planes plus boundary constraints.
	quadrics := make([]Quadric, base, 2*base)
	for _, t := range m.Tris {
		q := TriangleQuadric(m.Positions[t.A], m.Positions[t.B], m.Positions[t.C])
		quadrics[t.A].Add(q)
		quadrics[t.B].Add(q)
		quadrics[t.C].Add(q)
	}
	// Boundary edges get perpendicular penalty planes, accumulated in sorted
	// edge order: float addition is not associative, so the order a map
	// yields them in would make the whole sequence nondeterministic.
	type boundaryEdge struct {
		e [2]int64
		t geom.Triangle // the one triangle using e
	}
	var boundary []boundaryEdge
	edgeUse := m.Edges()
	for _, t := range m.Tris {
		for _, e := range [][2]int64{edgeKey(t.A, t.B), edgeKey(t.B, t.C), edgeKey(t.A, t.C)} {
			if edgeUse[e] == 1 {
				boundary = append(boundary, boundaryEdge{e, t})
			}
		}
	}
	slices.SortFunc(boundary, func(a, b boundaryEdge) int {
		return cmp.Or(cmp.Compare(a.e[0], b.e[0]), cmp.Compare(a.e[1], b.e[1]))
	})
	for _, b := range boundary {
		pa, pb, pc := m.Positions[b.t.A], m.Positions[b.t.B], m.Positions[b.t.C]
		fn := pb.Sub(pa).Cross(pc.Sub(pa))
		q := BoundaryQuadric(m.Positions[b.e[0]], m.Positions[b.e[1]], fn, opts.BoundaryWeight)
		quadrics[b.e[0]].Add(q)
		quadrics[b.e[1]].Add(q)
	}

	// evaluate returns the collapse target and error for edge (u, v).
	evaluate := func(u, v int64) (geom.Point3, float64) {
		pu, pv := seq.Positions[u], seq.Positions[v]
		switch opts.Metric {
		case VerticalDistance:
			pos := pu.Add(pv).Scale(0.5)
			du, dv := math.Abs(pu.Z-pos.Z), math.Abs(pv.Z-pos.Z)
			if dv > du {
				du = dv
			}
			return pos, du
		default: // QEM
			q := quadrics[u].Plus(quadrics[v])
			if pos, ok := q.Minimize(); ok {
				// Near-singular systems can place the optimum arbitrarily
				// far away (flat regions make the 3x3 system
				// ill-conditioned). For a terrain height field the merged
				// point should stay between its children in (x, y); accept
				// the optimum only when it does (with a small margin), else
				// fall back to the best candidate below.
				margin := 0.25*pu.XY().Dist(pv.XY()) + 1e-9
				if pos.X >= min(pu.X, pv.X)-margin && pos.X <= max(pu.X, pv.X)+margin &&
					pos.Y >= min(pu.Y, pv.Y)-margin && pos.Y <= max(pu.Y, pv.Y)+margin {
					return pos, q.RMS(pos)
				}
			}
			// Singular system: best of the endpoints and the midpoint.
			mid := pu.Add(pv).Scale(0.5)
			best, bestErr := mid, q.RMS(mid)
			if e := q.RMS(pu); e < bestErr {
				best, bestErr = pu, e
			}
			if e := q.RMS(pv); e < bestErr {
				best, bestErr = pv, e
			}
			return best, bestErr
		}
	}

	// Every undirected edge enters the heap exactly once — the initial ones
	// here under v < u, later ones only when incident to a just-created
	// vertex, whose ID is new — so no record of what is in the heap is kept.
	// The one re-push is of a deferred candidate, which was popped before it
	// was deferred and leaves the deferred set as it re-enters.
	var h edgeHeap
	pushEdge := func(lo, hi int64) {
		_, err := evaluate(lo, hi)
		wk.pushes++
		h.push(entry{err: err, u: int32(lo), v: int32(hi)})
	}
	for v := range adj {
		for _, u := range adj[v] {
			if int64(v) < u {
				pushEdge(int64(v), u)
			}
		}
	}

	// Candidates skipped because of the link condition wait in both
	// endpoints' lists. A deferred edge is retried when a collapse changes a
	// neighborhood it touches, i.e. when one of its endpoints is among the
	// new vertex's neighbors — so a collapse visits those few lists, never
	// the whole set.
	deferred := make([][]entry, base, 2*base)

	// Recorded errors are clamped to be non-decreasing along the collapse
	// sequence (the monotone error bound standard in view-dependent LOD,
	// cf. Hoppe '98 / Lindstrom-Pascucci). With monotone errors the
	// normalized LOD intervals of Section 4 of the paper align exactly
	// with collapse-sequence states: the approximation at LOD e equals the
	// mesh after the first k collapses with error <= e, which makes
	// connection-list reconstruction provably exact for uniform-LOD cuts.
	lastErr := 0.0

	// Once the heap is empty only deferred edges remain, and nothing will
	// change their neighborhoods again.
	var wingBuf [8]int64
	for liveCount > 1 && len(h) > 0 {
		c := h.pop()
		wk.pops++
		u, v := int64(c.u), int64(c.v)
		// An edge between two live vertices is never removed (adjacency
		// only loses dying children), so liveness is the whole staleness test.
		if !alive[u] || !alive[v] {
			wk.stale++
			continue
		}

		// Link condition: the children may share at most two neighbors
		// (the wings); more would pinch the surface.
		wings := wingBuf[:0]
		for _, n := range adj[u] {
			if slices.Contains(adj[v], n) {
				wings = append(wings, n)
			}
		}
		if len(wings) > 2 {
			wk.deferrals++
			deferred[u] = append(deferred[u], c)
			deferred[v] = append(deferred[v], c)
			continue
		}
		slices.Sort(wings)
		wings = append(wings, NoWing, NoWing) // absent wings read NoWing

		// New neighborhood: union of children's neighbors minus themselves.
		nbrs := make([]int64, 0, len(adj[u])+len(adj[v])-2)
		for _, n := range adj[u] {
			if n != v {
				nbrs = append(nbrs, n)
			}
		}
		for _, n := range adj[v] {
			if n != u && !slices.Contains(wings, n) {
				nbrs = append(nbrs, n)
			}
		}
		slices.Sort(nbrs)

		// Create the parent point.
		w := int64(len(seq.Positions))
		pos, _ := evaluate(u, v)
		seq.Positions = append(seq.Positions, pos)
		quadrics = append(quadrics, quadrics[u].Plus(quadrics[v]))
		alive = append(alive, true)
		adj = append(adj, nbrs)
		seq.ConnLists = append(seq.ConnLists, slices.Clone(nbrs))
		deferred = append(deferred, nil)
		for _, n := range nbrs {
			// In n's list w takes the place of whichever children it held.
			l, k := adj[n], 0
			for _, x := range l {
				if x != u && x != v {
					l[k] = x
					k++
				}
			}
			adj[n] = append(l[:k], w)
			seq.ConnLists[n] = append(seq.ConnLists[n], w)
		}
		alive[u], alive[v] = false, false
		adj[u], adj[v] = nil, nil
		deferred[u], deferred[v] = nil, nil
		liveCount-- // two die, one is born

		if c.err > lastErr {
			lastErr = c.err
		}
		seq.Collapses = append(seq.Collapses, Collapse{
			New: w, Child1: u, Child2: v,
			Wing1: wings[0], Wing2: wings[1],
			Pos: pos, Err: lastErr,
		})

		for _, n := range nbrs {
			pushEdge(n, w) // w is the newest ID, so n < w
			// Retry what n had deferred. An entry whose partner is dead is
			// dropped; the partner died in this very collapse (every neighbor
			// of a dying child is in nbrs), so no dead entry outlives one.
			for _, d := range deferred[n] {
				wk.visited++
				other := int64(d.u)
				if other == n {
					other = int64(d.v)
				}
				if alive[other] {
					deferred[other] = slices.DeleteFunc(deferred[other], func(b entry) bool { return b.u == d.u && b.v == d.v })
					wk.pushes, wk.retries = wk.pushes+1, wk.retries+1
					h.push(d)
				}
			}
			deferred[n] = deferred[n][:0]
		}
	}

	for v := int64(0); v < int64(len(alive)); v++ {
		if alive[v] {
			seq.Roots = append(seq.Roots, v)
		}
	}
	// Every list is already ascending: it starts sorted and each later entry
	// is the newest vertex ID. Lists grown by append keep their slack for the
	// life of every Terrain built on them (dm.FromSequence aliases them), so
	// they are copied into one exact-size arena, each sub-slice capped so an
	// append to it cannot reach its neighbor.
	total := 0
	for _, l := range seq.ConnLists {
		total += len(l)
	}
	arena := make([]int64, 0, total)
	for v, l := range seq.ConnLists {
		if l != nil {
			arena = append(arena, l...)
			seq.ConnLists[v] = arena[len(arena)-len(l) : len(arena) : len(arena)]
		}
	}
	return seq, wk, nil
}

// StepForLOD returns the number of leading collapses with error <= e.
// Because recorded errors are non-decreasing, the mesh after that many
// collapses is exactly the approximation at LOD e.
func (s *Sequence) StepForLOD(e float64) int {
	lo, hi := 0, len(s.Collapses)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.Collapses[mid].Err <= e {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// AdjacencyAtStep replays the first step collapses and returns the live
// adjacency of the mesh approximation after them, as sorted neighbor lists
// keyed by vertex ID. step ranges from 0 (full resolution) to
// len(Collapses). This is the ground truth that Direct Mesh reconstruction
// is validated against; it is O(mesh) per call and intended for tests and
// tools, not hot paths.
func (s *Sequence) AdjacencyAtStep(step int) (map[int64][]int64, error) {
	if step < 0 || step > len(s.Collapses) {
		return nil, fmt.Errorf("simplify: step %d out of range [0,%d]", step, len(s.Collapses))
	}
	adj := make(map[int64]map[int64]struct{}, s.BaseVertices)
	for v, ns := range s.InitialAdj {
		if ns == nil {
			continue
		}
		set := make(map[int64]struct{}, len(ns))
		for _, u := range ns {
			set[u] = struct{}{}
		}
		adj[int64(v)] = set
	}
	for i := 0; i < step; i++ {
		c := s.Collapses[i]
		nbrs := make(map[int64]struct{})
		for n := range adj[c.Child1] {
			if n != c.Child2 {
				nbrs[n] = struct{}{}
			}
		}
		for n := range adj[c.Child2] {
			if n != c.Child1 {
				nbrs[n] = struct{}{}
			}
		}
		for n := range nbrs {
			delete(adj[n], c.Child1)
			delete(adj[n], c.Child2)
			adj[n][c.New] = struct{}{}
		}
		delete(adj, c.Child1)
		delete(adj, c.Child2)
		adj[c.New] = nbrs
	}
	out := make(map[int64][]int64, len(adj))
	for v, set := range adj {
		lst := make([]int64, 0, len(set))
		for u := range set {
			lst = append(lst, u)
		}
		slices.Sort(lst)
		out[v] = lst
	}
	return out, nil
}

// ConnStats summarizes connection-list sizes, reproducing the in-text
// numbers of Section 4 of the paper (average similar-LOD connection points
// vs. average total connection points).
type ConnStats struct {
	AvgSimilarLOD    float64 // average ConnLists length
	MedianSimilarLOD int     // median ConnLists length (the paper reports ~12)
	MaxSimilarLOD    int
	AvgTotal         float64 // average count of all possible connection points
}

// Stats computes connection-list statistics. The "total connection points"
// of a vertex v follows the paper's recursive rules: every lifetime
// neighbor, each neighbor's ancestors up to (excluding) the first common
// ancestor, and each neighbor's descendants — i.e. every point that could
// connect to v in any approximation. We compute it as the number of
// distinct vertices u such that u's subtree-lifetime overlaps a neighbor
// relationship; concretely, for each lifetime neighbor n of v we count n
// plus all of n's ancestors and descendants, deduplicated.
func (s *Sequence) Stats() ConnStats {
	parent := make([]int64, len(s.Positions))
	children := make([][2]int64, len(s.Positions))
	for i := range parent {
		parent[i] = -1
		children[i] = [2]int64{-1, -1}
	}
	for _, c := range s.Collapses {
		parent[c.Child1] = c.New
		parent[c.Child2] = c.New
		children[c.New] = [2]int64{c.Child1, c.Child2}
	}

	var st ConnStats
	var totalSim, totalAll int
	var lengths []int
	n := 0
	for v := range s.ConnLists {
		if s.ConnLists[v] == nil {
			continue
		}
		n++
		l := len(s.ConnLists[v])
		totalSim += l
		lengths = append(lengths, l)
		if l > st.MaxSimilarLOD {
			st.MaxSimilarLOD = l
		}
		// Ancestors of v, so the walk up from each neighbor stops at the
		// first common ancestor (rule 1 of Section 4 excludes it and
		// everything above: those are ancestors of v too, and parent-child
		// pairs cannot coexist in an approximation).
		ancV := make(map[int64]struct{})
		for a := parent[v]; a != -1; a = parent[a] {
			ancV[a] = struct{}{}
		}
		seen := make(map[int64]struct{})
		for _, nb := range s.ConnLists[v] {
			// nb itself, its ancestors below the first common ancestor
			// with v, and its descendants.
			for a := nb; a != -1; a = parent[a] {
				if _, common := ancV[a]; common {
					break
				}
				seen[a] = struct{}{}
			}
			stack := []int64{nb}
			for len(stack) > 0 {
				cur := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				ch := children[cur]
				for _, c := range ch {
					if c != -1 {
						if _, ok := seen[c]; !ok {
							seen[c] = struct{}{}
							stack = append(stack, c)
						}
					}
				}
			}
		}
		totalAll += len(seen)
	}
	if n > 0 {
		st.AvgSimilarLOD = float64(totalSim) / float64(n)
		st.AvgTotal = float64(totalAll) / float64(n)
		slices.Sort(lengths)
		st.MedianSimilarLOD = lengths[len(lengths)/2]
	}
	return st
}
