// Package pm implements the Progressive Mesh multiresolution tree of
// Section 2 of the paper: an unbalanced binary tree whose leaves are the
// original terrain points and whose internal nodes are the points created
// by edge collapses, each recording its children, its wing points, its
// approximation error, and the footprint MBR of its descendants.
//
// The package provides both the in-memory tree (construction from a
// collapse sequence, LOD normalization, selective refinement) and the
// disk-resident baseline store the paper evaluates against: PM node
// records clustered in an LOD-quadtree with a B+-tree for by-ID fetches.
package pm

import (
	"fmt"
	"math"

	"dmesh/internal/geom"
	"dmesh/internal/simplify"
)

// None marks an absent node reference (no parent, wing, or child).
const None int64 = -1

// Node is one PM tree node: the paper's
// (ID, x, y, z, e, parent, child1, child2, wing1, wing2) record, plus the
// footprint MBR internal nodes must carry ("all internal nodes of the MTM
// tree must record ... its 'footprint'") and the normalized LOD interval.
type Node struct {
	ID  int64
	Pos geom.Point3

	// ERaw is the approximation error assigned by the simplifier.
	ERaw float64
	// ELow is the normalized LOD (Section 4): 0 for leaves, otherwise
	// max(ERaw, children's ELow), so LOD never decreases toward the root.
	ELow float64
	// EHigh is the parent's ELow (+Inf for roots). The node belongs to the
	// approximation at LOD e exactly when ELow <= e < EHigh.
	EHigh float64

	Parent, Child1, Child2 int64
	Wing1, Wing2           int64

	// MBR is the footprint: the (x, y) bounding rectangle of the node's
	// point and all its descendants.
	MBR geom.Rect
}

// Interval returns the node's LOD interval.
func (n *Node) Interval() geom.Interval { return geom.Interval{Low: n.ELow, High: n.EHigh} }

// IsLeaf reports whether the node is an original terrain point.
func (n *Node) IsLeaf() bool { return n.Child1 == None }

// Tree is an in-memory PM tree. Nodes are indexed by ID.
type Tree struct {
	Nodes []Node
	Roots []int64
	// MaxE is the dataset's maximum LOD value (the largest root ELow),
	// the top of the query cube in the paper's Figure 3.
	MaxE float64
}

// FromSequence builds the PM tree from a collapse sequence, applying the
// LOD normalization of Section 4.
func FromSequence(seq *simplify.Sequence) (*Tree, error) {
	if seq.NumVertices() == 0 {
		return nil, fmt.Errorf("pm: empty sequence")
	}
	t := &Tree{Nodes: make([]Node, seq.NumVertices())}
	for i := range t.Nodes {
		n := &t.Nodes[i]
		n.ID = int64(i)
		n.Pos = seq.Positions[i]
		n.Parent, n.Child1, n.Child2, n.Wing1, n.Wing2 = None, None, None, None, None
		n.EHigh = math.Inf(1)
		n.MBR = geom.PointRect(n.Pos.XY())
	}
	// Collapses are ordered children-before-parent, so one forward pass
	// computes normalized LODs and footprints bottom-up.
	for _, c := range seq.Collapses {
		p := &t.Nodes[c.New]
		c1, c2 := &t.Nodes[c.Child1], &t.Nodes[c.Child2]
		p.ERaw = c.Err
		p.ELow = c.Err
		if c1.ELow > p.ELow {
			p.ELow = c1.ELow
		}
		if c2.ELow > p.ELow {
			p.ELow = c2.ELow
		}
		p.Child1, p.Child2 = c.Child1, c.Child2
		p.Wing1, p.Wing2 = c.Wing1, c.Wing2
		p.MBR = p.MBR.Union(c1.MBR).Union(c2.MBR)
		c1.Parent, c2.Parent = c.New, c.New
		c1.EHigh, c2.EHigh = p.ELow, p.ELow
	}
	t.Roots = append([]int64(nil), seq.Roots...)
	for _, r := range t.Roots {
		if e := t.Nodes[r].ELow; e > t.MaxE {
			t.MaxE = e
		}
	}
	return t, nil
}

// Len returns the total number of nodes.
func (t *Tree) Len() int { return len(t.Nodes) }

// CheckInvariants validates the normalization and structural invariants:
// monotone LODs along paths, interval nesting, footprint containment, and
// that every non-root has a parent whose children include it.
func (t *Tree) CheckInvariants() error {
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if n.ELow < 0 {
			return fmt.Errorf("pm: node %d has negative LOD %g", n.ID, n.ELow)
		}
		if n.EHigh < n.ELow {
			return fmt.Errorf("pm: node %d has inverted interval [%g,%g)", n.ID, n.ELow, n.EHigh)
		}
		if n.IsLeaf() != (n.Child2 == None) {
			return fmt.Errorf("pm: node %d has exactly one child", n.ID)
		}
		if n.Parent == None {
			if !math.IsInf(n.EHigh, 1) {
				return fmt.Errorf("pm: root %d has finite EHigh %g", n.ID, n.EHigh)
			}
			continue
		}
		p := &t.Nodes[n.Parent]
		if p.Child1 != n.ID && p.Child2 != n.ID {
			return fmt.Errorf("pm: node %d not among parent %d's children", n.ID, n.Parent)
		}
		if p.ELow < n.ELow {
			return fmt.Errorf("pm: LOD not monotone: node %d (%g) above child %d (%g)", p.ID, p.ELow, n.ID, n.ELow)
		}
		if n.EHigh != p.ELow {
			return fmt.Errorf("pm: node %d EHigh %g != parent ELow %g", n.ID, n.EHigh, p.ELow)
		}
		if p.MBR.Union(n.MBR) != p.MBR {
			return fmt.Errorf("pm: footprint of %d not inside parent %d", n.ID, n.Parent)
		}
	}
	return nil
}

// cutCheck verifies that for LOD value e every leaf-to-root path crosses
// exactly one node whose interval contains e; used by tests through
// ValidateCut.
func (t *Tree) ValidateCut(e float64) error {
	for i := range t.Nodes {
		if !t.Nodes[i].IsLeaf() {
			continue
		}
		crossings := 0
		for id := int64(i); id != None; id = t.Nodes[id].Parent {
			if t.Nodes[id].Interval().Contains(e) {
				crossings++
			}
		}
		if crossings != 1 {
			return fmt.Errorf("pm: leaf %d crosses the LOD-%g cut %d times", i, e, crossings)
		}
	}
	return nil
}

// FrontierUniform performs in-memory selective refinement for the
// viewpoint-independent query Q(M, r, e) and returns the IDs of the mesh
// vertices: the frontier nodes of the refined subtree whose points lie in
// r. This is the ground-truth result that the disk-based stores (PM
// baseline and Direct Mesh) must reproduce.
func (t *Tree) FrontierUniform(r geom.Rect, e float64) []int64 {
	var frontier []int64
	var visit func(id int64)
	visit = func(id int64) {
		n := &t.Nodes[id]
		if n.ELow > e && !n.IsLeaf() && n.MBR.Intersects(r) {
			visit(n.Child1)
			visit(n.Child2)
			return
		}
		if r.ContainsPoint(n.Pos.XY()) {
			frontier = append(frontier, id)
		}
	}
	for _, root := range t.Roots {
		visit(root)
	}
	return frontier
}

// ExpandedUniform returns the IDs of the internal nodes of the refined
// subtree M' for Q(M, r, e): the nodes selective refinement must visit
// (and a disk-resident PM must fetch) to produce the frontier.
func (t *Tree) ExpandedUniform(r geom.Rect, e float64) []int64 {
	var expanded []int64
	var visit func(id int64)
	visit = func(id int64) {
		n := &t.Nodes[id]
		if n.ELow > e && !n.IsLeaf() && n.MBR.Intersects(r) {
			expanded = append(expanded, id)
			visit(n.Child1)
			visit(n.Child2)
		}
	}
	for _, root := range t.Roots {
		visit(root)
	}
	return expanded
}

// FrontierPlane performs in-memory selective refinement for a viewpoint-
// dependent query: the required LOD varies over the ROI following the
// query plane qp. A node is refined while its LOD exceeds the plane's
// requirement anywhere in its footprint (the most demanding point governs,
// since different parts of a footprint may need different LODs).
func (t *Tree) FrontierPlane(qp geom.QueryPlane) []int64 {
	var frontier []int64
	var visit func(id int64)
	visit = func(id int64) {
		n := &t.Nodes[id]
		if !n.IsLeaf() && n.MBR.Intersects(qp.R) && n.ELow > qp.MinOver(n.MBR.Intersect(qp.R)) {
			visit(n.Child1)
			visit(n.Child2)
			return
		}
		if qp.R.ContainsPoint(n.Pos.XY()) {
			frontier = append(frontier, id)
		}
	}
	for _, root := range t.Roots {
		visit(root)
	}
	return frontier
}

// ExpandedPlane returns the internal nodes visited by FrontierPlane.
func (t *Tree) ExpandedPlane(qp geom.QueryPlane) []int64 {
	var expanded []int64
	var visit func(id int64)
	visit = func(id int64) {
		n := &t.Nodes[id]
		if !n.IsLeaf() && n.MBR.Intersects(qp.R) && n.ELow > qp.MinOver(n.MBR.Intersect(qp.R)) {
			expanded = append(expanded, id)
			visit(n.Child1)
			visit(n.Child2)
		}
	}
	for _, root := range t.Roots {
		visit(root)
	}
	return expanded
}
