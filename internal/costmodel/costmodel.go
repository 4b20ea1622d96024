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

// moments are the eight sums over a class of nodes that formula (1)
// needs. Expanding the product,
//
//	Σ (qx+w)(qy+h)(qz+d) = N·qx·qy·qz + qx·qy·Σd + qx·qz·Σh + qy·qz·Σw
//	                       + qx·Σhd + qy·Σwd + qz·Σwh + Σwhd,
//
// a polynomial in the query extents whose coefficients do not depend on
// the query, so an estimate costs eight multiply-adds however many nodes
// the tree has. The value differs from the node-by-node sum only in
// rounding (≤ 1e-12 relative; the split test's margin is 1%).
type moments struct {
	n                        int
	w, h, d, wh, wd, hd, whd float64
}

func (s *moments) add(w, h, d float64) {
	s.n++
	s.w += w
	s.h += h
	s.d += d
	s.wh += w * h
	s.wd += w * d
	s.hd += h * d
	s.whd += w * h * d
}

// da is Σ (qx+w)(qy+h)(qz+d) over the class.
func (s *moments) da(qx, qy, qz float64) float64 {
	return float64(s.n)*qx*qy*qz +
		qx*qy*s.d + qx*qz*s.h + qy*qz*s.w +
		qx*s.hd + qy*s.wd + qz*s.wh + s.whd
}

// Model holds formula (1)'s moments of one R*-tree's normalized node
// extents. Building it scans the tree once (a once-off cost, like the
// paper's index statistics, not charged to queries).
//
// The paper stores DM points directly in the R-tree, so formula (1) covers
// all I/O. This repository stores records in a heap file clustered on the
// index, so a visited leaf implies additional data-page accesses; the
// data factor scales the leaf terms accordingly (leaf entries per heap
// page). With DataFactor left at zero the model is exactly formula (1).
type Model struct {
	space       geom.Box
	inner       moments // directory nodes
	leaves      moments // leaf nodes
	leafEntries int     // total data entries across leaves
	dataFactor  float64 // extra data pages per visited leaf
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
		w := ni.Box.Width() / space.Width()
		h := ni.Box.Height() / space.Height()
		d := ni.Box.Depth() / space.Depth()
		if ni.Level == 1 {
			m.leaves.add(w, h, d)
			m.leafEntries += ni.Entries
		} else {
			m.inner.add(w, h, d)
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
	if m.leaves.n == 0 {
		return 0
	}
	return float64(m.leafEntries) / float64(m.leaves.n)
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
func (m *Model) NumNodes() int { return m.inner.n + m.leaves.n }

// EstimateDA evaluates formula (1) for query box q, with leaf terms scaled
// by the data factor when one is set.
func (m *Model) EstimateDA(q geom.Box) float64 {
	return m.estimate(q.Width()/m.space.Width(), q.Height()/m.space.Height(), q.Depth()/m.space.Depth())
}

// estimate is formula (1) for a query of normalized extents (qx, qy, qz).
func (m *Model) estimate(qx, qy, qz float64) float64 {
	return m.inner.da(qx, qy, qz) + (1+m.dataFactor)*m.leaves.da(qx, qy, qz)
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
	strips, _ := m.Plan(qp, maxStrips)
	return strips
}

// Plan is PlanStrips returning, beside the strips, the plan's estimated
// disk accesses as the optimizer priced them: the strips' estimates less,
// under SetSharedPool, the boundary term each accepted split was credited
// (the single-base estimate minus the accepted gains).
func (m *Model) Plan(qp geom.QueryPlane, maxStrips int) ([]Strip, float64) {
	if maxStrips <= 0 {
		maxStrips = 64
	}
	budget := maxStrips
	single := stripFor(qp, qp.R)
	// Every split of one plan is credited the same boundary term: no split
	// changes a strip's extent across the gradient axis.
	var shared float64
	if m.sharedPool {
		shared = m.boundaryShared(single.Box(), qp.Axis)
	}
	var out []Strip
	var rec func(strip Strip, stripDA float64) float64
	rec = func(strip Strip, stripDA float64) float64 {
		if budget > 1 && !tooThin(strip.R, qp.Axis) {
			r1, r2 := splitMid(strip.R, qp.Axis)
			s1, s2 := stripFor(qp, r1), stripFor(qp, r2)
			da1, da2 := m.EstimateDA(s1.Box()), m.EstimateDA(s2.Box())
			gain := stripDA - da1 - da2 + shared
			threshold := 0.0
			if m.sharedPool {
				// Keep splitting while the predicted saving is at least 1% of
				// the strip's own estimate; as strips shrink toward the plane
				// the marginal saving vanishes and the recursion stops.
				threshold = 0.01 * stripDA
			}
			if gain > threshold {
				budget--
				return rec(s1, da1) + rec(s2, da2) - shared
			}
		}
		out = append(out, strip)
		return stripDA
	}
	total := rec(single, m.EstimateDA(single.Box()))
	return out, total
}

// boundaryShared estimates the disk accesses double-counted by two
// adjacent strips of q split across the gradient axis: the nodes
// straddling the boundary plane, which a shared buffer pool reads once.
// It is formula (1) for the boundary face itself, which has no extent
// along the split axis or in e: qy·Σwd + Σwhd for axis 0, qx·Σhd + Σwhd
// for axis 1.
func (m *Model) boundaryShared(q geom.Box, axis int) float64 {
	if axis == 0 {
		return m.estimate(0, q.Height()/m.space.Height(), 0)
	}
	return m.estimate(q.Width()/m.space.Width(), 0, 0)
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
