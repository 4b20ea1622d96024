// Package experiments reproduces the paper's evaluation (Section 6):
// every figure is a runner that executes the corresponding query workload
// against the Direct Mesh store and the PM and HDoV baselines, measuring
// cold-cache disk accesses averaged over randomly placed regions of
// interest.
package experiments

import (
	"fmt"

	"dmesh"
	"dmesh/internal/geom"
	"dmesh/internal/workload"
)

// Method names a query-processing strategy under test.
type Method string

// The strategies compared in the paper's figures.
const (
	DMSB Method = "DM-SB" // Direct Mesh, single-base
	DMMB Method = "DM-MB" // Direct Mesh, multi-base (viewpoint-dependent only)
	PM   Method = "PM"    // Progressive Mesh on the LOD-quadtree
	HDoV Method = "HDoV"  // HDoV-tree
)

// Bundle holds one dataset with all stores built, ready to measure.
type Bundle struct {
	Name    string
	Terrain *dmesh.Terrain
	DM      *dmesh.DMStore
	PM      *dmesh.PMStore
	HDoV    *dmesh.HDoVStore
	Model   *dmesh.CostModel
}

// BuildBundle generates a dataset and builds every store on it, with the
// DM store on LayoutSTR — fixed-size records, the physical design the
// paper figures are measured on; the library's own default is packed.
func BuildBundle(name string, size int, seed int64) (*Bundle, error) {
	t, err := dmesh.Build(dmesh.Config{Dataset: name, Size: size, Seed: seed})
	if err != nil {
		return nil, err
	}
	b := &Bundle{Name: name, Terrain: t}
	if b.DM, err = t.NewDMStoreWithPools(dmesh.StorePools{Layout: dmesh.LayoutSTR}); err != nil {
		return nil, fmt.Errorf("experiments: dm store: %w", err)
	}
	if b.Model, err = dmesh.NewCostModel(b.DM); err != nil {
		return nil, fmt.Errorf("experiments: cost model: %w", err)
	}
	if b.PM, err = t.NewPMStore(); err != nil {
		return nil, fmt.Errorf("experiments: pm store: %w", err)
	}
	if b.HDoV, err = t.NewHDoVStore(); err != nil {
		return nil, fmt.Errorf("experiments: hdov store: %w", err)
	}
	return b, nil
}

// Point is one measured (x, average disk accesses) pair.
type Point struct {
	X  float64
	DA float64
}

// Series is one method's curve in a figure.
type Series struct {
	Method Method
	Points []Point
}

// Figure is one reproduced figure: the paper's plot as a set of series.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	Series []Series
}

// coldRun resolves a method to its store and runs fn as a cold measured
// query (dmesh.MeasuredRun: DropCaches + ResetStats + fn + DiskAccesses).
func coldRun(s dmesh.ColdMeasurable, fn func() error) (float64, error) {
	da, err := dmesh.MeasuredRun(s, fn)
	if err != nil {
		return 0, err
	}
	return float64(da), nil
}

// measureUniform runs one cold viewpoint-independent query and returns
// its disk accesses.
func (b *Bundle) measureUniform(m Method, roi geom.Rect, e float64) (float64, error) {
	switch m {
	case DMSB:
		return coldRun(b.DM, func() error {
			_, err := b.DM.ViewpointIndependent(roi, e)
			return err
		})
	case PM:
		return coldRun(b.PM, func() error {
			_, err := b.PM.QueryUniform(roi, e)
			return err
		})
	case HDoV:
		return coldRun(b.HDoV, func() error {
			_, err := b.HDoV.QueryUniform(roi, e)
			return err
		})
	default:
		return 0, fmt.Errorf("experiments: method %q not applicable to viewpoint-independent queries", m)
	}
}

// measurePlane runs one cold viewpoint-dependent query.
func (b *Bundle) measurePlane(m Method, qp geom.QueryPlane) (float64, error) {
	switch m {
	case DMSB:
		return coldRun(b.DM, func() error {
			_, err := b.DM.SingleBase(qp)
			return err
		})
	case DMMB:
		return coldRun(b.DM, func() error {
			_, err := b.DM.MultiBase(qp, b.Model, 0)
			return err
		})
	case PM:
		return coldRun(b.PM, func() error {
			_, err := b.PM.QueryPlane(qp)
			return err
		})
	case HDoV:
		return coldRun(b.HDoV, func() error {
			_, err := b.HDoV.QueryPlane(qp)
			return err
		})
	default:
		return 0, fmt.Errorf("experiments: unknown method %q", m)
	}
}

// avgUniform averages a viewpoint-independent measurement over ROIs.
func (b *Bundle) avgUniform(m Method, rois []geom.Rect, e float64) (float64, error) {
	var sum float64
	for _, roi := range rois {
		da, err := b.measureUniform(m, roi, e)
		if err != nil {
			return 0, err
		}
		sum += da
	}
	return sum / float64(len(rois)), nil
}

// avgPlane averages a viewpoint-dependent measurement, building the plane
// per ROI via mk.
func (b *Bundle) avgPlane(m Method, rois []geom.Rect, mk func(geom.Rect) geom.QueryPlane) (float64, error) {
	var sum float64
	for _, roi := range rois {
		da, err := b.measurePlane(m, mk(roi))
		if err != nil {
			return 0, err
		}
		sum += da
	}
	return sum / float64(len(rois)), nil
}

// EffectiveMaxLOD is the LOD used as "the maximal LOD value of the
// dataset" in the θmax formula (Section 6.2). The absolute maximum is a
// degenerate outlier (the last few collapses merge the entire terrain
// into a handful of points), so the robust 99.5th percentile stands in:
// with it, angle sweeps move the query cube through LOD ranges that
// actually contain points.
func (b *Bundle) EffectiveMaxLOD() float64 { return b.Terrain.LODPercentile(0.995) }

// DensityLOD is the LOD used where the paper says "the LOD of the mesh is
// set to the average LOD value of the dataset ... chosen to allow for a
// mesh with reasonable data density when displayed". The raw mean of
// quadric errors is degenerate (a few huge top-level collapses dominate
// it, leaving meshes of a handful of points), so the workload uses the
// LOD at which the approximation retains a few percent of the points —
// the density the paper describes.
func (b *Bundle) DensityLOD() float64 { return b.Terrain.LODPercentile(0.97) }

// Fig6ROI reproduces Figures 6(a)/6(c): viewpoint-independent queries
// with varying ROI size at the dataset's display-density LOD.
func (b *Bundle) Fig6ROI(cfg workload.Config, roiFracs []float64) (*Figure, error) {
	e := b.DensityLOD()
	fig := &Figure{
		ID:     "6-roi",
		Title:  fmt.Sprintf("Uniform mesh, varying ROI (%s)", b.Name),
		XLabel: "ROI (% of dataset area)",
	}
	for _, m := range []Method{DMSB, PM, HDoV} {
		s := Series{Method: m}
		for _, frac := range roiFracs {
			rois := workload.ROIs(cfg, frac)
			da, err := b.avgUniform(m, rois, e)
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{X: frac * 100, DA: da})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Fig6LOD reproduces Figures 6(b)/6(d): viewpoint-independent queries
// with varying LOD at a fixed ROI. LOD values are given as percentiles of
// the dataset's LOD distribution (the paper uses the range "that contains
// substantial number of points"; raw errors are too skewed for a linear
// percentage axis).
func (b *Bundle) Fig6LOD(cfg workload.Config, roiFrac float64, lodPcts []float64) (*Figure, error) {
	fig := &Figure{
		ID:     "6-lod",
		Title:  fmt.Sprintf("Uniform mesh, varying LOD (%s)", b.Name),
		XLabel: "LOD (percentile of LOD distribution)",
	}
	rois := workload.ROIs(cfg, roiFrac)
	for _, m := range []Method{DMSB, PM, HDoV} {
		s := Series{Method: m}
		for _, pct := range lodPcts {
			e := b.Terrain.LODPercentile(pct)
			da, err := b.avgUniform(m, rois, e)
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{X: pct * 100, DA: da})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// planeMethods are the strategies compared on viewpoint-dependent queries.
func planeMethods() []Method { return []Method{DMMB, DMSB, PM, HDoV} }

// Fig8ROI reproduces Figures 8(a)/8(d): viewpoint-dependent queries with
// varying ROI size; the angle is half of θmax and the plane starts at the
// dataset's display-density LOD.
func (b *Bundle) Fig8ROI(cfg workload.Config, roiFracs []float64) (*Figure, error) {
	emin := b.DensityLOD()
	maxLOD := b.EffectiveMaxLOD()
	fig := &Figure{
		ID:     "8-roi",
		Title:  fmt.Sprintf("Viewpoint-dependent mesh, varying ROI (%s)", b.Name),
		XLabel: "ROI (% of dataset area)",
	}
	for _, m := range planeMethods() {
		s := Series{Method: m}
		for _, frac := range roiFracs {
			rois := workload.ROIs(cfg, frac)
			da, err := b.avgPlane(m, rois, func(roi geom.Rect) geom.QueryPlane {
				return workload.PlaneFor(roi, emin, maxLOD, 0.5)
			})
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{X: frac * 100, DA: da})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Fig8LOD reproduces Figures 8(b)/8(e): viewpoint-dependent queries with
// varying e_min (as LOD-distribution percentiles); the angle stays at half
// of θmax, so e_max follows e_min.
func (b *Bundle) Fig8LOD(cfg workload.Config, roiFrac float64, eminPcts []float64) (*Figure, error) {
	maxLOD := b.EffectiveMaxLOD()
	fig := &Figure{
		ID:     "8-lod",
		Title:  fmt.Sprintf("Viewpoint-dependent mesh, varying LOD (%s)", b.Name),
		XLabel: "e_min (percentile of LOD distribution)",
	}
	rois := workload.ROIs(cfg, roiFrac)
	for _, m := range planeMethods() {
		s := Series{Method: m}
		for _, pct := range eminPcts {
			emin := b.Terrain.LODPercentile(pct)
			da, err := b.avgPlane(m, rois, func(roi geom.Rect) geom.QueryPlane {
				return workload.PlaneFor(roi, emin, maxLOD, 0.5)
			})
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{X: pct * 100, DA: da})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Fig8Angle reproduces Figures 8(c)/8(f): viewpoint-dependent queries
// with varying angle (as a fraction of θmax); e_min is fixed low so large
// angles are possible (the paper sets it to 1%).
func (b *Bundle) Fig8Angle(cfg workload.Config, roiFrac float64, angleFracs []float64) (*Figure, error) {
	// The paper fixes e_min to a small value (1% of max) so a wide angle
	// range is possible; the distribution-aware analogue is a moderately
	// fine LOD.
	emin := b.Terrain.LODPercentile(0.85)
	maxLOD := b.EffectiveMaxLOD()
	fig := &Figure{
		ID:     "8-angle",
		Title:  fmt.Sprintf("Viewpoint-dependent mesh, varying angle (%s)", b.Name),
		XLabel: "angle (% of θmax)",
	}
	rois := workload.ROIs(cfg, roiFrac)
	for _, m := range planeMethods() {
		s := Series{Method: m}
		for _, frac := range angleFracs {
			da, err := b.avgPlane(m, rois, func(roi geom.Rect) geom.QueryPlane {
				return workload.PlaneFor(roi, emin, maxLOD, frac)
			})
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{X: frac * 100, DA: da})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}
