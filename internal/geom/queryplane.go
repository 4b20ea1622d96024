package geom

import "math"

// QueryPlane models the paper's viewpoint-dependent query: over the ROI R
// the required LOD varies linearly from EMin at the viewer-near edge to
// EMax at the far edge ("the region closer to the viewer can have a higher
// LOD, i.e. a smaller approximation error value"). The paper's experiments
// use planes parallel to an axis (Section 5.2 presents the method on the
// (y, e) projection); Axis selects which. EMin <= EMax: the query cube
// spans [EMin, EMax] in e, and the store refuses an inverted plane.
type QueryPlane struct {
	R          Rect
	EMin, EMax float64
	// Axis is the direction along which the required LOD grows: 0 for x,
	// 1 for y. The viewer sits at the low edge of that axis.
	Axis int
}

// EAt returns the LOD the plane requires at point (x, y), clamped to
// [EMin, EMax]. Points outside R clamp to the nearest edge requirement. A
// degenerate plane requires EMin exactly, at any value: interpolating
// +Inf - +Inf would make it NaN.
func (qp QueryPlane) EAt(x, y float64) float64 {
	if qp.EMin == qp.EMax {
		return qp.EMin
	}
	var t float64
	if qp.Axis == 0 {
		if w := qp.R.Width(); w > 0 {
			t = (x - qp.R.MinX) / w
		}
	} else {
		if h := qp.R.Height(); h > 0 {
			t = (y - qp.R.MinY) / h
		}
	}
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	return qp.EMin + (qp.EMax-qp.EMin)*t
}

// MinOver returns the smallest LOD the plane requires anywhere in rect —
// the binding requirement when deciding whether a region is refined
// enough. An invalid (empty) rect yields EMax (no requirement).
func (qp QueryPlane) MinOver(rect Rect) float64 {
	if !rect.Valid() {
		return qp.EMax
	}
	// The requirement grows along Axis, so the minimum is at the low
	// corner (EAt only reads the Axis coordinate).
	return qp.EAt(rect.MinX, rect.MinY)
}

// MaxAngle returns the paper's θmax for a dataset with the given maximum
// LOD over a ROI of the given extent: arctan(LODmax / roiExtent).
func MaxAngle(lodMax, roiExtent float64) float64 {
	if roiExtent == 0 {
		return math.Pi / 2
	}
	return math.Atan(lodMax / roiExtent)
}

// PlaneForAngle builds the query plane over r with the given start LOD
// emin and angle (radians): emax = emin + tan(angle) * extent(axis).
func PlaneForAngle(r Rect, emin, angle float64, axis int) QueryPlane {
	run := r.Height()
	if axis == 0 {
		run = r.Width()
	}
	return QueryPlane{R: r, EMin: emin, EMax: emin + math.Tan(angle)*run, Axis: axis}
}
