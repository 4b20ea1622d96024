// Package hdov implements the HDoV-tree baseline of the paper's
// evaluation (Shou, Huang, Tan; ICDE 2003): an LOD-R-tree — a spatial
// hierarchy whose internal nodes store pre-generalized approximation
// meshes of their subtrees — extended with per-node degree-of-visibility
// (DoV) data held in the "indexed-vertical storage scheme" (one array per
// view direction, so a query touching many nodes reads few visibility
// pages).
//
// Following Section 6 of the paper, "the terrain is partitioned into
// grids, which serve as the objects in the HDoV tree"; the hierarchy here
// is a regular quadtree of grid cells (the shape an R-tree packs uniform
// grid objects into), with one approximation mesh per node, generalized
// from the same multiresolution cuts the other methods use. Queries stop
// descending once a node's stored LOD suffices (or the node is occluded),
// and then read the node's whole mesh — the coarse-granularity behaviour
// the paper criticizes: "entire node needs to be retrieved even if only a
// small part of the area covered by the node is needed".
package hdov

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"dmesh/internal/geom"
	"dmesh/internal/heightfield"
	"dmesh/internal/pm"
	"dmesh/internal/storage/heapfile"
	"dmesh/internal/storage/pager"
)

// Direction indexes the four canonical viewer placements visibility is
// precomputed for (the viewer stands at the middle of that edge of the
// terrain).
type Direction int

// View directions.
const (
	South Direction = iota // viewer at low y
	North                  // viewer at high y
	West                   // viewer at low x
	East                   // viewer at high x
	numDirections
)

// DirectionForPlane returns the precomputed direction matching a query
// plane: the viewer stands at the plane's low edge.
func DirectionForPlane(qp geom.QueryPlane) Direction {
	if qp.Axis == 0 {
		return West
	}
	return South
}

const (
	// meshRecordSize is one approximation vertex row: a full point record
	// (the same schema as the PM table — the HDoV tree materializes the
	// points of each node's generalized mesh as ordinary table rows).
	// Rows of all levels live in one table laid out in Hilbert (x, y)
	// order, so cost differences between methods come from structure, not
	// from storage packing.
	meshRecordSize = pm.RecordSize
	// dirRecordSize is one directory node: region rect, stored LOD,
	// children indices, row-list head, row count.
	dirRecordSize = 32 + 8 + 4*8 + 8 + 8
	// visRecordSize is one DoV value.
	visRecordSize = 8
	// rowListFanout is how many vertex-row references one row-list record
	// holds; longer lists chain through a next pointer.
	rowListFanout = 64
	// rowListRecordSize is next(8) + count(2) + references.
	rowListRecordSize = 8 + 2 + rowListFanout*8
	// noChild marks an absent child (and terminates row-list chains).
	noChild = int64(-1)
)

// Point is one vertex of a retrieved approximation.
type Point struct {
	ID  int64
	Pos geom.Point3
}

// Store is a disk-resident HDoV-tree.
type Store struct {
	dir   *heapfile.File // directory nodes
	msh   *heapfile.File // vertex rows, Hilbert-ordered
	rl    *heapfile.File // per-node row-reference lists
	vis   *heapfile.File // degree-of-visibility arrays
	dirP  *pager.Pager
	mshP  *pager.Pager
	rlP   *pager.Pager
	visP  *pager.Pager
	root  heapfile.RID
	count int64 // directory nodes
}

type dirNode struct {
	region   geom.Rect
	e        float64 // LOD of the stored approximation (0 = exact)
	children [4]int64
	rowHead  int64 // first row-list record (noChild when empty)
	rowCount int64
}

func encodeDir(n *dirNode, buf []byte) {
	le := binary.LittleEndian
	le.PutUint64(buf[0:], math.Float64bits(n.region.MinX))
	le.PutUint64(buf[8:], math.Float64bits(n.region.MinY))
	le.PutUint64(buf[16:], math.Float64bits(n.region.MaxX))
	le.PutUint64(buf[24:], math.Float64bits(n.region.MaxY))
	le.PutUint64(buf[32:], math.Float64bits(n.e))
	for i, c := range n.children {
		le.PutUint64(buf[40+i*8:], uint64(c))
	}
	le.PutUint64(buf[72:], uint64(n.rowHead))
	le.PutUint64(buf[80:], uint64(n.rowCount))
}

func decodeDir(buf []byte) dirNode {
	le := binary.LittleEndian
	var n dirNode
	n.region = geom.Rect{
		MinX: math.Float64frombits(le.Uint64(buf[0:])),
		MinY: math.Float64frombits(le.Uint64(buf[8:])),
		MaxX: math.Float64frombits(le.Uint64(buf[16:])),
		MaxY: math.Float64frombits(le.Uint64(buf[24:])),
	}
	n.e = math.Float64frombits(le.Uint64(buf[32:]))
	for i := range n.children {
		n.children[i] = int64(le.Uint64(buf[40+i*8:]))
	}
	n.rowHead = int64(le.Uint64(buf[72:]))
	n.rowCount = int64(le.Uint64(buf[80:]))
	return n
}

// Options configure the build. The zero value selects defaults.
type Options struct {
	// Levels is the hierarchy depth (root = level 0). 0 selects a depth
	// giving leaf cells of roughly 256 points.
	Levels int
	// Pools sizes the buffer pools in pages.
	MeshPool, DirPool, VisPool, RowPool int
}

func (o *Options) defaults(points int) {
	if o.Levels <= 0 {
		o.Levels = 1
		for cells := 1; points/(cells*cells) > 256 && o.Levels < 8; {
			o.Levels++
			cells *= 2
		}
	}
	if o.MeshPool <= 0 {
		o.MeshPool = 4096
	}
	if o.DirPool <= 0 {
		o.DirPool = 512
	}
	if o.VisPool <= 0 {
		o.VisPool = 256
	}
	if o.RowPool <= 0 {
		o.RowPool = 512
	}
}

// Build constructs the HDoV store from the multiresolution tree (for the
// per-level generalized meshes) and the original heightfield (for the
// visibility precomputation).
func Build(tree *pm.Tree, g *heightfield.Grid, opts Options) (*Store, error) {
	opts.defaults(len(tree.Nodes))
	s := &Store{
		dirP: pager.New(pager.NewMemBackend(), opts.DirPool),
		mshP: pager.New(pager.NewMemBackend(), opts.MeshPool),
		rlP:  pager.New(pager.NewMemBackend(), opts.RowPool),
		visP: pager.New(pager.NewMemBackend(), opts.VisPool),
	}
	var err error
	if s.dir, err = heapfile.Create(s.dirP, dirRecordSize); err != nil {
		return nil, fmt.Errorf("hdov: %w", err)
	}
	if s.msh, err = heapfile.Create(s.mshP, meshRecordSize); err != nil {
		return nil, fmt.Errorf("hdov: %w", err)
	}
	if s.rl, err = heapfile.Create(s.rlP, rowListRecordSize); err != nil {
		return nil, fmt.Errorf("hdov: %w", err)
	}
	if s.vis, err = heapfile.Create(s.visP, visRecordSize); err != nil {
		return nil, fmt.Errorf("hdov: %w", err)
	}

	// Per-level LOD values: the leaf level stores the exact terrain
	// (e = 0); each level up stores roughly a quarter of the points,
	// which the monotone collapse sequence gives directly.
	levels := opts.Levels
	eOf := levelLODs(tree, levels)

	// Pass 1: every node's generalized mesh, as (node, point) rows.
	type nodeKey struct{ lvl, cell int }
	type row struct {
		key nodeKey
		id  int64
	}
	var rows []row
	for lvl := 0; lvl < levels; lvl++ {
		cells := 1 << lvl
		cuts := cutByCell(tree, eOf[lvl], cells)
		for cell, pts := range cuts {
			for _, id := range pts {
				rows = append(rows, row{key: nodeKey{lvl, cell}, id: id})
			}
		}
	}

	// Pass 2: lay the vertex rows out in Hilbert (x, y) order and record
	// each node's row references.
	sort.SliceStable(rows, func(a, b int) bool {
		ka := geom.HilbertKey(tree.Nodes[rows[a].id].Pos.XY())
		kb := geom.HilbertKey(tree.Nodes[rows[b].id].Pos.XY())
		if ka != kb {
			return ka < kb
		}
		return rows[a].id < rows[b].id
	})
	rids := make(map[nodeKey][]int64)
	mbuf := make([]byte, meshRecordSize)
	for _, r := range rows {
		encodeMeshRecord(&tree.Nodes[r.id], mbuf)
		rid, err := s.msh.Append(mbuf)
		if err != nil {
			return nil, fmt.Errorf("hdov: mesh append: %w", err)
		}
		rids[r.key] = append(rids[r.key], int64(rid))
	}

	// Pass 3: write each node's row list as a chain (tail first, so every
	// record knows its successor).
	heads := make(map[nodeKey]int64)
	rlbuf := make([]byte, rowListRecordSize)
	for lvl := 0; lvl < levels; lvl++ {
		cells := 1 << lvl
		for cell := 0; cell < cells*cells; cell++ {
			key := nodeKey{lvl, cell}
			list := rids[key]
			head := noChild
			for start := ((len(list) - 1) / rowListFanout) * rowListFanout; start >= 0; start -= rowListFanout {
				end := start + rowListFanout
				if end > len(list) {
					end = len(list)
				}
				encodeRowList(list[start:end], head, rlbuf)
				rid, err := s.rl.Append(rlbuf)
				if err != nil {
					return nil, fmt.Errorf("hdov: row list append: %w", err)
				}
				head = int64(rid)
			}
			if len(list) == 0 {
				head = noChild
			}
			heads[key] = head
		}
	}

	// Pass 4: directory nodes, bottom-up so children RIDs exist first.
	type lvlNodes struct{ ids []int64 }
	var prev lvlNodes
	buf := make([]byte, dirRecordSize)
	for lvl := levels - 1; lvl >= 0; lvl-- {
		cells := 1 << lvl
		cur := lvlNodes{ids: make([]int64, cells*cells)}
		for cy := 0; cy < cells; cy++ {
			for cx := 0; cx < cells; cx++ {
				cell := cy*cells + cx
				key := nodeKey{lvl, cell}
				n := dirNode{
					region: geom.Rect{
						MinX: float64(cx) / float64(cells),
						MinY: float64(cy) / float64(cells),
						MaxX: float64(cx+1) / float64(cells),
						MaxY: float64(cy+1) / float64(cells),
					},
					e:        eOf[lvl],
					children: [4]int64{noChild, noChild, noChild, noChild},
					rowHead:  heads[key],
					rowCount: int64(len(rids[key])),
				}
				if lvl < levels-1 {
					for q := 0; q < 4; q++ {
						ccx, ccy := cx*2+q%2, cy*2+q/2
						n.children[q] = prev.ids[ccy*(cells*2)+ccx]
					}
				}
				encodeDir(&n, buf)
				rid, err := s.dir.Append(buf)
				if err != nil {
					return nil, fmt.Errorf("hdov: dir append: %w", err)
				}
				cur.ids[cell] = int64(rid)
			}
		}
		prev = cur
	}
	s.root = heapfile.RID(prev.ids[0])
	s.count = s.dir.NumRecords()

	// Visibility: DoV per node per direction, written direction-major
	// (the indexed-vertical scheme — all values for one direction are
	// contiguous).
	dov, err := s.computeVisibility(g)
	if err != nil {
		return nil, err
	}
	vbuf := make([]byte, visRecordSize)
	for d := Direction(0); d < numDirections; d++ {
		for i := int64(0); i < s.count; i++ {
			binary.LittleEndian.PutUint64(vbuf, math.Float64bits(dov[d][i]))
			if _, err := s.vis.Append(vbuf); err != nil {
				return nil, fmt.Errorf("hdov: vis append: %w", err)
			}
		}
	}
	return s, nil
}

// encodeRowList writes one row-list record holding refs (len <=
// rowListFanout) chaining to next.
func encodeRowList(refs []int64, next int64, buf []byte) {
	le := binary.LittleEndian
	le.PutUint64(buf[0:], uint64(next))
	le.PutUint16(buf[8:], uint16(len(refs)))
	for i, r := range refs {
		le.PutUint64(buf[10+i*8:], uint64(r))
	}
}

// decodeRowList reads one row-list record.
func decodeRowList(buf []byte) (refs []int64, next int64) {
	le := binary.LittleEndian
	next = int64(le.Uint64(buf[0:]))
	cnt := int(le.Uint16(buf[8:]))
	refs = make([]int64, cnt)
	for i := 0; i < cnt; i++ {
		refs[i] = int64(le.Uint64(buf[10+i*8:]))
	}
	return refs, next
}

func encodeMeshRecord(n *pm.Node, buf []byte) {
	pm.EncodeRecord(n, buf)
}

func decodeMeshRecord(buf []byte) Point {
	n := pm.DecodeRecord(buf)
	return Point{ID: n.ID, Pos: n.Pos}
}

// levelLODs picks one LOD value per level: 0 at the leaves, then the LOD
// at which the global cut retains about a quarter of the previous level's
// points, up to the root.
func levelLODs(tree *pm.Tree, levels int) []float64 {
	base := 0
	for i := range tree.Nodes {
		if tree.Nodes[i].IsLeaf() {
			base++
		}
	}
	collapses := len(tree.Nodes) - base
	es := make([]float64, levels)
	for lvl := levels - 1; lvl >= 0; lvl-- {
		depth := levels - 1 - lvl // 0 at leaves
		if depth == 0 {
			es[lvl] = 0
			continue
		}
		keep := base
		for d := 0; d < depth; d++ {
			keep /= 4
		}
		if keep < 1 {
			keep = 1
		}
		k := base - keep // collapses applied
		if k > collapses {
			k = collapses
		}
		if k <= 0 {
			es[lvl] = 0
			continue
		}
		// The k-th collapse's error: nodes are ordered children-first, so
		// internal node base+k-1 was created by collapse k-1.
		es[lvl] = tree.Nodes[base+k-1].ELow
	}
	return es
}

// cutByCell buckets the uniform cut at LOD e into a cells x cells grid.
func cutByCell(tree *pm.Tree, e float64, cells int) [][]int64 {
	out := make([][]int64, cells*cells)
	for i := range tree.Nodes {
		n := &tree.Nodes[i]
		if !n.Interval().Contains(e) {
			continue
		}
		cx := int(n.Pos.X * float64(cells))
		cy := int(n.Pos.Y * float64(cells))
		cx = clampInt(cx, 0, cells-1)
		cy = clampInt(cy, 0, cells-1)
		out[cy*cells+cx] = append(out[cy*cells+cx], int64(i))
	}
	return out
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// computeVisibility precomputes, for every directory node and each of the
// four edge viewpoints, the fraction of sample points in the node's
// region with an unobstructed line of sight — the degree of visibility.
func (s *Store) computeVisibility(g *heightfield.Grid) ([numDirections][]float64, error) {
	var dov [numDirections][]float64
	viewers := [numDirections]geom.Point3{
		South: {X: 0.5, Y: -0.05},
		North: {X: 0.5, Y: 1.05},
		West:  {X: -0.05, Y: 0.5},
		East:  {X: 1.05, Y: 0.5},
	}
	// The viewer hovers just below the terrain maximum: high enough to
	// see open terrain (on gentle datasets DoV stays near 1, matching the
	// paper's observation that visibility helps little there), low enough
	// that major features like a crater rim occlude what lies behind them.
	_, hi := g.MinMax()
	for d := range viewers {
		viewers[d].Z = 1.1 * hi
	}
	for d := Direction(0); d < numDirections; d++ {
		dov[d] = make([]float64, s.count)
	}
	buf := make([]byte, dirRecordSize)
	for i := int64(0); i < s.count; i++ {
		if err := s.dir.Read(heapfile.RID(i), buf); err != nil {
			return dov, err
		}
		n := decodeDir(buf)
		for d := Direction(0); d < numDirections; d++ {
			dov[d][i] = regionDoV(g, n.region, viewers[d])
		}
	}
	return dov, nil
}

// regionDoV samples a 3x3 grid of points in region and returns the
// fraction visible from the viewer.
func regionDoV(g *heightfield.Grid, region geom.Rect, viewer geom.Point3) float64 {
	visible, total := 0, 0
	for sy := 0; sy < 3; sy++ {
		for sx := 0; sx < 3; sx++ {
			x := region.MinX + (float64(sx)+0.5)/3*region.Width()
			y := region.MinY + (float64(sy)+0.5)/3*region.Height()
			total++
			// A small clearance above the ground marks the target,
			// avoiding grazing self-occlusion along the terrain surface.
			target := geom.Point3{X: x, Y: y, Z: sampleHeight(g, x, y) + 0.02}
			if lineOfSight(g, viewer, target) {
				visible++
			}
		}
	}
	return float64(visible) / float64(total)
}

func sampleHeight(g *heightfield.Grid, x, y float64) float64 {
	i := clampInt(int(x*float64(g.Size-1)+0.5), 0, g.Size-1)
	j := clampInt(int(y*float64(g.Size-1)+0.5), 0, g.Size-1)
	return g.At(i, j)
}

// lineOfSight marches from the viewer toward the target just above the
// terrain and reports whether the target is visible.
func lineOfSight(g *heightfield.Grid, from, to geom.Point3) bool {
	const steps = 48
	for k := 1; k < steps; k++ {
		t := float64(k) / steps
		x := from.X + (to.X-from.X)*t
		y := from.Y + (to.Y-from.Y)*t
		if x < 0 || x > 1 || y < 0 || y > 1 {
			continue
		}
		rayZ := from.Z + (to.Z-from.Z)*t
		if sampleHeight(g, x, y) > rayZ+1e-9 {
			return false
		}
	}
	return true
}
