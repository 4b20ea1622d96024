package hdov

import (
	"encoding/binary"
	"fmt"
	"math"

	"dmesh/internal/geom"
	"dmesh/internal/storage/heapfile"
	"dmesh/internal/storage/pager"
)

// Result is the outcome of an HDoV query: the retrieved approximation
// points plus retrieval statistics.
type Result struct {
	Points []Point
	// FetchedRecords counts every mesh record read, including points
	// outside the ROI that came along because whole node meshes are read.
	FetchedRecords int
	// NodesUsed counts the directory nodes whose meshes were used.
	NodesUsed int
	// Skipped counts subtrees pruned by visibility.
	Skipped int
}

// DropCaches flushes and empties the buffer pools.
func (s *Store) DropCaches() error {
	for _, p := range s.pagers() {
		if err := p.DropCache(); err != nil {
			return err
		}
	}
	return nil
}

// ResetStats zeroes the disk-access counters.
func (s *Store) ResetStats() {
	for _, p := range s.pagers() {
		p.ResetStats()
	}
}

// DiskAccesses returns pages read since the last ResetStats.
func (s *Store) DiskAccesses() uint64 {
	var total uint64
	for _, p := range s.pagers() {
		total += p.Stats().Reads
	}
	return total
}

func (s *Store) pagers() []*pager.Pager {
	return []*pager.Pager{s.dirP, s.mshP, s.rlP, s.visP}
}

func (s *Store) readDir(rid int64, buf []byte) (dirNode, error) {
	if err := s.dir.Read(heapfile.RID(rid), buf); err != nil {
		return dirNode{}, fmt.Errorf("hdov: read dir %d: %w", rid, err)
	}
	return decodeDir(buf), nil
}

// readDoV reads the degree of visibility of node rid for direction d from
// the direction-major (indexed-vertical) array.
func (s *Store) readDoV(rid int64, d Direction) (float64, error) {
	buf := make([]byte, visRecordSize)
	if err := s.vis.Read(heapfile.RID(int64(d)*s.count+rid), buf); err != nil {
		return 0, fmt.Errorf("hdov: read dov: %w", err)
	}
	return decodeFloat(buf), nil
}

// readMesh reads a node's whole approximation mesh — the row-list chain,
// then every referenced vertex row — appending the points inside r to
// dst. Whole-node granularity is inherent to the structure: every row is
// read even when only part of the node's region is needed.
func (s *Store) readMesh(n *dirNode, r geom.Rect, dst *Result) error {
	lbuf := make([]byte, rowListRecordSize)
	buf := make([]byte, meshRecordSize)
	for head := n.rowHead; head != noChild; {
		if err := s.rl.Read(heapfile.RID(head), lbuf); err != nil {
			return fmt.Errorf("hdov: read row list: %w", err)
		}
		var refs []int64
		refs, head = decodeRowList(lbuf)
		for _, ref := range refs {
			if err := s.msh.Read(heapfile.RID(ref), buf); err != nil {
				return fmt.Errorf("hdov: read mesh row: %w", err)
			}
			dst.FetchedRecords++
			p := decodeMeshRecord(buf)
			if r.ContainsPoint(p.Pos.XY()) {
				dst.Points = append(dst.Points, p)
			}
		}
	}
	dst.NodesUsed++
	return nil
}

// QueryUniform answers the viewpoint-independent query Q(M, r, e): the
// tree is descended until a node's stored LOD is sufficient, then that
// node's whole mesh is read.
func (s *Store) QueryUniform(r geom.Rect, e float64) (*Result, error) {
	res := &Result{}
	buf := make([]byte, dirRecordSize)
	var visit func(rid int64) error
	visit = func(rid int64) error {
		n, err := s.readDir(rid, buf)
		if err != nil {
			return err
		}
		if !n.region.Intersects(r) {
			return nil
		}
		if n.e <= e || n.children[0] == noChild {
			return s.readMesh(&n, r, res)
		}
		for _, c := range n.children {
			if err := visit(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := visit(int64(s.root)); err != nil {
		return nil, err
	}
	return res, nil
}

// QueryPlane answers a viewpoint-dependent query. Visibility modulates
// the required LOD: fully occluded subtrees are excluded, and low-DoV
// regions accept coarser approximations (the HDoV premise). The viewer
// direction is derived from the plane.
func (s *Store) QueryPlane(qp geom.QueryPlane) (*Result, error) {
	return s.queryPlane(qp, true)
}

// QueryPlaneLODRTree answers the same query without consulting visibility
// — the plain LOD-R-tree behavior (Kofler et al.) that the HDoV-tree
// extends. Comparing the two reproduces the paper's observation that "the
// visibility selection does not help the HDoV-tree much because
// obstruction among the areas of the terrain is not as much as in the
// synthetic city model".
func (s *Store) QueryPlaneLODRTree(qp geom.QueryPlane) (*Result, error) {
	return s.queryPlane(qp, false)
}

func (s *Store) queryPlane(qp geom.QueryPlane, useVisibility bool) (*Result, error) {
	res := &Result{}
	dir := DirectionForPlane(qp)
	buf := make([]byte, dirRecordSize)
	var visit func(rid int64) error
	visit = func(rid int64) error {
		n, err := s.readDir(rid, buf)
		if err != nil {
			return err
		}
		if !n.region.Intersects(qp.R) {
			return nil
		}
		req := qp.MinOver(n.region.Intersect(qp.R))
		if useVisibility {
			dov, err := s.readDoV(rid, dir)
			if err != nil {
				return err
			}
			if dov == 0 {
				// Fully occluded: excluded from the result.
				res.Skipped++
				return nil
			}
			// The binding requirement over the visible part of the
			// region, relaxed toward the coarse end as visibility drops.
			req += (1 - dov) * (qp.EMax - req)
		}
		if n.e <= req || n.children[0] == noChild {
			return s.readMesh(&n, qp.R, res)
		}
		for _, c := range n.children {
			if err := visit(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := visit(int64(s.root)); err != nil {
		return nil, err
	}
	return res, nil
}

func decodeFloat(buf []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(buf))
}
