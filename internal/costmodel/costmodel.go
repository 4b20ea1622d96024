// Package costmodel implements the R-tree disk-access estimation and the
// multi-base query optimizer of Section 5.3 of the paper.
//
// The expected number of disk accesses for a range query q over an R-tree
// with N nodes is (formula (1), after Kamel & Faloutsos / Pagel et al.):
//
//	DA(R, q) = Σ_i (qx + wi) · (qy + hi) · (qz + di)
//
// with all quantities normalized to the data space. A viewpoint-dependent
// query plane can be covered by one query cube (single base) or several
// smaller cubes hugging the plane (multi base); splitting a cube in the
// middle of the LOD-gradient axis maximizes the volume reduction (the
// paper's analysis of formula (9)), and the split is worthwhile exactly
// when formula (7) predicts fewer disk accesses. The optimizer applies the
// split recursively until no further split is predicted to help.
package costmodel

import (
	"errors"
	"fmt"

	"dmesh/internal/geom"
	"dmesh/internal/rtree"
)

// Model holds the normalized node extents of one R*-tree. Building it
// scans the tree once (a once-off cost, like the paper's index statistics,
// not charged to queries).
//
// The paper stores DM points directly in the R-tree, so formula (1) covers
// all I/O. This repository stores records in a heap file clustered on the
// index, so a visited leaf implies additional data-page accesses; the
// data factor scales the leaf terms accordingly (leaf entries per heap
// page). With DataFactor left at zero the model is exactly formula (1).
type Model struct {
	space       geom.Box
	inner       [][3]float64 // normalized (w, h, d) of directory nodes
	leaves      [][3]float64 // normalized (w, h, d) of leaf nodes
	leafEntries int          // total data entries across leaves
	dataFactor  float64      // extra data pages per visited leaf
	// sharedPool declares that the strips of one multi-base query share a
	// buffer pool, so a node straddling two adjacent strips is read once,
	// not twice. The paper's formula (2) charges every strip its full
	// independent cost; SetSharedPool(true) subtracts the double-counted
	// boundary terms, which is how this repository's engine behaves.
	sharedPool bool
}

// FromRTree collects node extents from t, normalizing by the data space.
func FromRTree(t *rtree.Tree, space geom.Box) (*Model, error) {
	if !space.Valid() || space.Volume() == 0 {
		return nil, errors.New("costmodel: data space must have positive volume")
	}
	m := &Model{space: space}
	err := t.Nodes(func(ni rtree.NodeInfo) bool {
		dims := [3]float64{
			ni.Box.Width() / space.Width(),
			ni.Box.Height() / space.Height(),
			ni.Box.Depth() / space.Depth(),
		}
		if ni.Level == 1 {
			m.leaves = append(m.leaves, dims)
			m.leafEntries += ni.Entries
		} else {
			m.inner = append(m.inner, dims)
		}
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("costmodel: scan tree: %w", err)
	}
	return m, nil
}

// AvgLeafEntries returns the average number of data entries per leaf.
func (m *Model) AvgLeafEntries() float64 {
	if len(m.leaves) == 0 {
		return 0
	}
	return float64(m.leafEntries) / float64(len(m.leaves))
}

// SetDataFactor declares how many clustered data pages accompany each
// visited index leaf (records per leaf divided by records per data page).
// Zero restores the paper's pure-index formula.
func (m *Model) SetDataFactor(f float64) {
	if f < 0 {
		f = 0
	}
	m.dataFactor = f
}

// DataFactor returns the data pages charged per visited leaf (see
// SetDataFactor).
func (m *Model) DataFactor() float64 { return m.dataFactor }

// SetSharedPool selects the shared-buffer-pool variant of the split test
// (see the sharedPool field). Off by default: the paper's formula (7).
func (m *Model) SetSharedPool(on bool) { m.sharedPool = on }

// NumNodes returns the number of nodes the model covers.
func (m *Model) NumNodes() int { return len(m.inner) + len(m.leaves) }

// EstimateDA evaluates formula (1) for query box q, with leaf terms scaled
// by the data factor when one is set.
func (m *Model) EstimateDA(q geom.Box) float64 {
	qx := q.Width() / m.space.Width()
	qy := q.Height() / m.space.Height()
	qz := q.Depth() / m.space.Depth()
	var sum float64
	for _, d := range m.inner {
		sum += (qx + d[0]) * (qy + d[1]) * (qz + d[2])
	}
	leafWeight := 1 + m.dataFactor
	for _, d := range m.leaves {
		sum += leafWeight * (qx + d[0]) * (qy + d[1]) * (qz + d[2])
	}
	return sum
}

// Strip is one query cube of a multi-base plan: the sub-ROI and the LOD
// range its cube spans.
type Strip struct {
	R           geom.Rect
	ELow, EHigh float64
}

// Box returns the strip's query cube.
func (s Strip) Box() geom.Box { return geom.BoxFromRect(s.R, s.ELow, s.EHigh) }

// PlanStrips covers the query plane qp with cubes: starting from the
// single-base cube, it recursively splits at the middle of the LOD-
// gradient axis while the cost model predicts a disk-access gain, up to
// maxStrips cubes (0 means the default of 64). The returned strips are
// ordered along the gradient axis. A single returned strip is exactly the
// single-base plan.
//
// Without SetSharedPool the split test is the paper's formula (7),
// DA(q) > DA(q1) + DA(q2). With it, the double-counted boundary terms are
// credited back and a minimal gain of one page is required, matching an
// engine whose strips share a buffer pool.
func (m *Model) PlanStrips(qp geom.QueryPlane, maxStrips int) []Strip {
	if maxStrips <= 0 {
		maxStrips = 64
	}
	budget := maxStrips
	var out []Strip
	var rec func(r geom.Rect)
	rec = func(r geom.Rect) {
		strip := stripFor(qp, r)
		if budget <= 1 || tooThin(r, qp.Axis) {
			out = append(out, strip)
			return
		}
		r1, r2 := splitMid(r, qp.Axis)
		s1, s2 := stripFor(qp, r1), stripFor(qp, r2)
		stripDA := m.EstimateDA(strip.Box())
		gain := stripDA - m.EstimateDA(s1.Box()) - m.EstimateDA(s2.Box())
		threshold := 0.0
		if m.sharedPool {
			gain += m.boundaryShared(strip.Box(), qp.Axis)
			// Keep splitting while the predicted saving is at least 1% of
			// the strip's own estimate; as strips shrink toward the plane
			// the marginal saving vanishes and the recursion stops.
			threshold = 0.01 * stripDA
		}
		if gain > threshold {
			budget--
			rec(r1)
			rec(r2)
			return
		}
		out = append(out, strip)
	}
	rec(qp.R)
	return out
}

// boundaryShared estimates the disk accesses double-counted by two
// adjacent strips of q split across the gradient axis: the nodes
// straddling the boundary plane, which a shared buffer pool reads once.
func (m *Model) boundaryShared(q geom.Box, axis int) float64 {
	qx := q.Width() / m.space.Width()
	qy := q.Height() / m.space.Height()
	var sum float64
	visit := func(dims [][3]float64, weight float64) {
		for _, d := range dims {
			if axis == 0 {
				sum += weight * d[0] * (qy + d[1]) * d[2]
			} else {
				sum += weight * (qx + d[0]) * d[1] * d[2]
			}
		}
	}
	visit(m.inner, 1)
	visit(m.leaves, 1+m.dataFactor)
	return sum
}

// EqualStrips covers qp with exactly k equal strips along the gradient
// axis, ignoring the cost model — the fixed-split baseline the optimizer
// is compared against in ablations.
func EqualStrips(qp geom.QueryPlane, k int) []Strip {
	if k < 1 {
		k = 1
	}
	out := make([]Strip, 0, k)
	for i := 0; i < k; i++ {
		r := qp.R
		if qp.Axis == 0 {
			w := r.Width() / float64(k)
			r.MinX = qp.R.MinX + float64(i)*w
			r.MaxX = r.MinX + w
		} else {
			h := r.Height() / float64(k)
			r.MinY = qp.R.MinY + float64(i)*h
			r.MaxY = r.MinY + h
		}
		out = append(out, stripFor(qp, r))
	}
	return out
}

// stripFor builds the cube that covers qp's plane over sub-ROI r: its LOD
// range spans the plane's values across r (the rectangles of Figure 5).
func stripFor(qp geom.QueryPlane, r geom.Rect) Strip {
	var lo, hi float64
	if qp.Axis == 0 {
		lo, hi = qp.EAt(r.MinX, 0), qp.EAt(r.MaxX, 0)
	} else {
		lo, hi = qp.EAt(0, r.MinY), qp.EAt(0, r.MaxY)
	}
	if hi < lo {
		lo, hi = hi, lo
	}
	return Strip{R: r, ELow: lo, EHigh: hi}
}

func splitMid(r geom.Rect, axis int) (geom.Rect, geom.Rect) {
	if axis == 0 {
		mid := (r.MinX + r.MaxX) / 2
		return geom.Rect{MinX: r.MinX, MinY: r.MinY, MaxX: mid, MaxY: r.MaxY},
			geom.Rect{MinX: mid, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
	}
	mid := (r.MinY + r.MaxY) / 2
	return geom.Rect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: mid},
		geom.Rect{MinX: r.MinX, MinY: mid, MaxX: r.MaxX, MaxY: r.MaxY}
}

// tooThin stops splitting when a strip's gradient-axis extent is
// negligible (avoids degenerate slivers from unbounded recursion).
func tooThin(r geom.Rect, axis int) bool {
	const minExtent = 1e-6
	if axis == 0 {
		return r.Width() < minExtent
	}
	return r.Height() < minExtent
}
