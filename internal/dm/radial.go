package dm

import (
	"fmt"
	"math"

	"dmesh/internal/geom"
	"dmesh/internal/obs"
)

// Radial answers the paper's general viewpoint-dependent query from
// Section 2: "the required LOD for a point in a viewpoint-dependent query
// can be estimated using f(m.e, d) <= E for node m whose distance to the
// viewer is d". With the rule-of-thumb f(e, d) = e/d, a point needs
// e <= E*d: full detail next to the viewer, linear coarsening with
// distance in every direction — the radial generalization of the straight
// query planes the evaluation uses.
//
// The paper observes that "conceptually, a viewpoint-dependent query can
// be considered as a number of viewpoint-independent queries, each with a
// sub-region and a uniform LOD"; Radial implements exactly that: the ROI
// is split into tiles x tiles sub-regions, each fetched with one cube
// spanning the radial profile's range over the tile, and the combined
// records assemble the mesh the same way multi-base queries do.
func (s *Store) Radial(roi geom.Rect, viewer geom.Point2, scale float64, tiles int) (*Result, error) {
	if !roi.Valid() || roi.Area() == 0 {
		return nil, fmt.Errorf("dm: radial query needs a non-degenerate ROI, got %v", roi)
	}
	if scale <= 0 {
		return nil, fmt.Errorf("dm: radial LOD scale must be positive, got %g", scale)
	}
	if tiles < 1 {
		tiles = 8
	}

	s.tr.Begin(obs.PhaseQuery)
	defer s.tr.End()
	var boxes []geom.Box
	tw := roi.Width() / float64(tiles)
	th := roi.Height() / float64(tiles)
	for ty := 0; ty < tiles; ty++ {
		for tx := 0; tx < tiles; tx++ {
			tile := geom.Rect{
				MinX: roi.MinX + float64(tx)*tw,
				MinY: roi.MinY + float64(ty)*th,
				MaxX: roi.MinX + float64(tx+1)*tw,
				MaxY: roi.MinY + float64(ty+1)*th,
			}
			lo, hi := radialRange(tile, viewer, scale)
			boxes = append(boxes, s.cube(tile, lo, hi))
		}
	}
	return s.query(boxes, func(x, y float64) float64 {
		return scale * viewer.Dist(geom.Point2{X: x, Y: y})
	}, true)
}

// radialRange returns the min and max required LOD over a tile: the
// distances from the viewer to the tile's closest and farthest points,
// scaled.
func radialRange(tile geom.Rect, viewer geom.Point2, scale float64) (lo, hi float64) {
	// Closest point of the rect to the viewer.
	cx := math.Min(math.Max(viewer.X, tile.MinX), tile.MaxX)
	cy := math.Min(math.Max(viewer.Y, tile.MinY), tile.MaxY)
	dmin := viewer.Dist(geom.Point2{X: cx, Y: cy})
	// Farthest point is one of the corners.
	dmax := 0.0
	for _, c := range [4]geom.Point2{
		{X: tile.MinX, Y: tile.MinY}, {X: tile.MaxX, Y: tile.MinY},
		{X: tile.MinX, Y: tile.MaxY}, {X: tile.MaxX, Y: tile.MaxY},
	} {
		if d := viewer.Dist(c); d > dmax {
			dmax = d
		}
	}
	return scale * dmin, scale * dmax
}
