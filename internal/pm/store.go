package pm

import (
	"fmt"

	"dmesh/internal/geom"
	"dmesh/internal/quadtree"
	"dmesh/internal/storage/btree"
	"dmesh/internal/storage/pager"
)

// Store is the disk-resident PM baseline of the paper's evaluation: every
// PM node record is clustered in an LOD-quadtree at the point
// (x, y, ELow), and a B+-tree maps node IDs to their quadtree locations
// for the by-ID fetches selective refinement needs when a required node
// was not caught by the range query (ancestors whose own point falls
// outside the ROI, and descendants whose subtree re-enters it).
type Store struct {
	qt    *quadtree.Tree
	idx   *btree.Tree
	qtP   *pager.Pager
	idxP  *pager.Pager
	roots []int64
	maxE  float64
}

// The buffer pool sizes in pages: quadtree data and B+-tree ID index.
const (
	dataPool  = 4096
	indexPool = 1024
)

// BuildStore lays the tree's records out on two fresh in-memory pagers
// (quadtree data + B+-tree ID index).
func BuildStore(t *Tree) (*Store, error) {
	qtP := pager.New(pager.NewMemBackend(), dataPool)
	idxB := pager.NewMemBackend()

	items := make([]quadtree.Item, len(t.Nodes))
	buf := make([]byte, RecordSize)
	for i := range t.Nodes {
		n := &t.Nodes[i]
		EncodeRecord(n, buf)
		items[i] = quadtree.Item{
			X: n.Pos.X, Y: n.Pos.Y, E: n.ELow,
			Payload: append([]byte(nil), buf...),
		}
	}
	qt, refs, err := quadtree.Build(qtP, RecordSize, items)
	if err != nil {
		return nil, fmt.Errorf("pm: build quadtree: %w", err)
	}
	vals := make([]int64, len(refs))
	for i, r := range refs {
		vals[i] = int64(r)
	}
	if err := btree.Build(idxB, vals); err != nil {
		return nil, fmt.Errorf("pm: build index: %w", err)
	}
	idxP := pager.New(idxB, indexPool)
	idx, err := btree.Open(idxP)
	if err != nil {
		return nil, fmt.Errorf("pm: open index: %w", err)
	}
	return &Store{
		qt: qt, idx: idx, qtP: qtP, idxP: idxP,
		roots: append([]int64(nil), t.Roots...),
		maxE:  t.MaxE,
	}, nil
}

// DropCaches flushes and empties every buffer pool, reproducing the
// paper's cold-cache methodology.
func (s *Store) DropCaches() error {
	if err := s.qtP.DropCache(); err != nil {
		return err
	}
	return s.idxP.DropCache()
}

// ResetStats zeroes the disk-access counters.
func (s *Store) ResetStats() {
	s.qtP.ResetStats()
	s.idxP.ResetStats()
}

// DiskAccesses returns the total pages read since the last ResetStats —
// the paper's cost metric.
func (s *Store) DiskAccesses() uint64 {
	return s.qtP.Stats().Reads + s.idxP.Stats().Reads
}

// fetchByID reads one node record through the B+-tree: an index probe plus
// a data-page access, the "sequential I/O operations, one for each node"
// the paper attributes to tree traversal.
func (s *Store) fetchByID(id int64) (Node, error) {
	ref, err := s.idx.Get(id)
	if err != nil {
		return Node{}, fmt.Errorf("pm: fetch node %d: %w", id, err)
	}
	_, _, _, payload, err := s.qt.Fetch(quadtree.Ref(ref))
	if err != nil {
		return Node{}, fmt.Errorf("pm: fetch node %d: %w", id, err)
	}
	return DecodeRecord(payload), nil
}

// QueryResult carries the outcome of a PM query: the refined subtree's
// internal nodes (fetched), the frontier vertices (the approximation), and
// how each group of fetches was paid for.
type QueryResult struct {
	// Frontier holds the mesh vertices: ID -> node data. Every frontier
	// node's own record is fetched (by ID when the range query missed
	// it).
	Frontier map[int64]FrontierVertex
	// FetchedNodes is the number of node records retrieved.
	FetchedNodes int
	// ChasedNodes counts the records that the range query missed and had
	// to be fetched individually by ID.
	ChasedNodes int
}

// FrontierVertex is one output vertex of a PM query.
type FrontierVertex struct {
	ID  int64
	Pos geom.Point3
}

// QueryUniform answers the viewpoint-independent query Q(M, r, e) against
// the disk store, reproducing the baseline method of Sections 3 and 6:
//
//  1. One 3D range query on the LOD-quadtree with the query cube
//     r x [e, maxE] (the paper's Figure 3: under the LOD-quadtree "the
//     query needs to be converted into a 3D range query using a query
//     cube defined by the r, e and the maximum LOD of the dataset").
//     This fetches the refined subtree's internal nodes whose points lie
//     inside r.
//  2. Individual by-ID fetches for the internal nodes the cube missed:
//     ancestors positioned outside r and nodes whose own point is outside
//     r but whose footprint re-enters it. This level-by-level chasing is
//     the structural inefficiency the paper attributes to MTM traversal.
func (s *Store) QueryUniform(r geom.Rect, e float64) (*QueryResult, error) {
	fetched := make(map[int64]Node)
	// Step 1: the cube query.
	cube := geom.BoxFromRect(r, e, s.maxE)
	err := s.qt.Query(cube, func(x, y, el float64, payload []byte) bool {
		n := DecodeRecord(payload)
		fetched[n.ID] = n
		return true
	})
	if err != nil {
		return nil, err
	}
	res := &QueryResult{Frontier: make(map[int64]FrontierVertex)}
	res.FetchedNodes = len(fetched)

	// The cube catches nodes with ELow >= e; among them only those with
	// footprints meeting r are part of M'. Records fetched but not needed
	// still cost their I/O (that is the point of the comparison); they are
	// simply not expanded.
	needs := func(n *Node) bool {
		return !n.IsLeaf() && n.ELow > e && n.MBR.Intersects(r)
	}

	// Step 2: complete M' top-down, chasing missing nodes by ID.
	var ensure func(id int64) (Node, error)
	ensure = func(id int64) (Node, error) {
		if n, ok := fetched[id]; ok {
			return n, nil
		}
		n, err := s.fetchByID(id)
		if err != nil {
			return Node{}, err
		}
		fetched[id] = n
		res.FetchedNodes++
		res.ChasedNodes++
		return n, nil
	}
	var expand func(id int64) error
	expand = func(id int64) error {
		n, err := ensure(id)
		if err != nil {
			return err
		}
		if !needs(&n) {
			// Frontier node: it is part of the approximation.
			if r.ContainsPoint(n.Pos.XY()) {
				res.Frontier[n.ID] = FrontierVertex{ID: n.ID, Pos: n.Pos}
			}
			return nil
		}
		if err := expand(n.Child1); err != nil {
			return err
		}
		return expand(n.Child2)
	}
	for _, root := range s.roots {
		if err := expand(root); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// QueryPlane answers a viewpoint-dependent query against the disk store.
// PM has no way to bound the cube from above by the query plane: selective
// refinement must start from the root, so the cube spans [qp.EMin, maxE]
// over the whole ROI (Section 5.2: "the query cube used here is smaller
// [for DM] as the top plane is no longer the maximum LOD of the data set,
// i.e., that of the root node").
func (s *Store) QueryPlane(qp geom.QueryPlane) (*QueryResult, error) {
	fetched := make(map[int64]Node)
	cube := geom.BoxFromRect(qp.R, qp.EMin, s.maxE)
	err := s.qt.Query(cube, func(x, y, el float64, payload []byte) bool {
		n := DecodeRecord(payload)
		fetched[n.ID] = n
		return true
	})
	if err != nil {
		return nil, err
	}
	res := &QueryResult{Frontier: make(map[int64]FrontierVertex)}
	res.FetchedNodes = len(fetched)

	needs := func(n *Node) bool {
		if n.IsLeaf() || !n.MBR.Intersects(qp.R) {
			return false
		}
		return n.ELow > qp.MinOver(n.MBR.Intersect(qp.R))
	}
	var ensure func(id int64) (Node, error)
	ensure = func(id int64) (Node, error) {
		if n, ok := fetched[id]; ok {
			return n, nil
		}
		n, err := s.fetchByID(id)
		if err != nil {
			return Node{}, err
		}
		fetched[id] = n
		res.FetchedNodes++
		res.ChasedNodes++
		return n, nil
	}
	var expand func(id int64) error
	expand = func(id int64) error {
		n, err := ensure(id)
		if err != nil {
			return err
		}
		if !needs(&n) {
			if qp.R.ContainsPoint(n.Pos.XY()) {
				res.Frontier[n.ID] = FrontierVertex{ID: n.ID, Pos: n.Pos}
			}
			return nil
		}
		if err := expand(n.Child1); err != nil {
			return err
		}
		return expand(n.Child2)
	}
	for _, root := range s.roots {
		if err := expand(root); err != nil {
			return nil, err
		}
	}
	return res, nil
}
