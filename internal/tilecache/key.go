// Package tilecache serves Direct Mesh queries from a shared cache of
// materialized mesh tiles. It quantizes an arbitrary uniform query
// Q(r, e) onto a canonical quadtree-aligned tile grid crossed with a
// discrete LOD ladder, materializes each (tile, LOD-band) key at most
// once as a self-contained dm.TilePatch, and answers queries by stitching
// cached patches along their connection lists and clipping to the true
// ROI — exactly equal to the direct query at the snapped LOD, with zero
// store I/O on a full hit.
//
// Overlapping ROIs at similar LOD map to the same keys, so N clients
// flying over the same popular terrain share one materialization: the
// classic canonical-tiling fix for redundant spatial work (cf. the
// Hierarchical Triangular Mesh), with the cached tile as the unit of I/O.
package tilecache

import (
	"fmt"
	"math"
	"sort"

	"dmesh/internal/geom"
)

// Key identifies one cacheable tile: a cell of the 2^Level x 2^Level
// quadtree grid over the unit square, at one rung of the LOD ladder.
// Identical keys are what overlapping queries share — and what the
// cluster router hashes onto shards (the key is canonical, so every
// router and every shard agree on the unit of placement).
type Key struct {
	// Level is the quadtree depth; the grid is 2^Level cells per side.
	Level int
	// IX, IY are the cell's column and row, in [0, 2^Level).
	IX, IY int
	// Band indexes the cache's LOD ladder.
	Band int
}

// Less is the total order used everywhere tiles are iterated or
// tie-broken: by level, then row, column, band.
func (k Key) Less(o Key) bool {
	if k.Level != o.Level {
		return k.Level < o.Level
	}
	if k.IY != o.IY {
		return k.IY < o.IY
	}
	if k.IX != o.IX {
		return k.IX < o.IX
	}
	return k.Band < o.Band
}

// String renders the canonical spelling of the key, "L/IY/IX/B" — the
// byte string the cluster's consistent-hash ring hashes. Two processes
// computing a key's placement must hash identical bytes, so the format
// is part of the routing contract.
func (k Key) String() string {
	return fmt.Sprintf("%d/%d/%d/%d", k.Level, k.IY, k.IX, k.Band)
}

// Grid quantizes queries for one store: a power-of-two tile grid over the
// unit square whose border cells are widened to the store's data space
// (collapse placement may position merged nodes slightly outside the unit
// square; every node must land in some tile for covers to stay exact).
//
// A Grid is pure arithmetic over its three parameters, so a cluster
// router built with the same (dataRect, maxLevel, ladder) as its shards'
// caches computes byte-identical keys and footprints without talking to
// them.
type Grid struct {
	dataRect geom.Rect // (x, y) bounds of the stored segments
	maxLevel int
	ladder   []float64 // ascending discrete LODs
}

// Grid depths: the default, which every Cache uses, and the deepest a
// grid addresses, the level up to which a cell boundary ix·2^-level is an
// exact float64 (RectFor).
const (
	defaultMaxLevel = 4
	deepestLevel    = 52
)

// NewGrid validates and builds a quantization grid. The ladder is copied,
// sorted ascending, and must be non-empty, finite and without duplicate
// rungs; maxLevel must lie in [0, 52], and 0 selects the default depth 4.
func NewGrid(dataRect geom.Rect, maxLevel int, ladder []float64) (*Grid, error) {
	if len(ladder) == 0 {
		return nil, fmt.Errorf("tilecache: empty LOD ladder")
	}
	l := append([]float64(nil), ladder...)
	sort.Float64s(l)
	for i, e := range l {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			return nil, fmt.Errorf("tilecache: ladder rung %g is not finite", e)
		}
		if i > 0 && e == l[i-1] {
			return nil, fmt.Errorf("tilecache: duplicate ladder rung %g", e)
		}
	}
	if maxLevel == 0 {
		maxLevel = defaultMaxLevel
	}
	if maxLevel < 0 || maxLevel > deepestLevel {
		return nil, fmt.Errorf("tilecache: grid depth %d outside [0, %d]", maxLevel, deepestLevel)
	}
	return &Grid{dataRect: dataRect, maxLevel: maxLevel, ladder: l}, nil
}

// DataRect returns the (x, y) bounds border tiles are widened to.
func (g *Grid) DataRect() geom.Rect { return g.dataRect }

// MaxLevel returns the deepest quadtree level the grid quantizes to.
func (g *Grid) MaxLevel() int { return g.maxLevel }

// Ladder returns the grid's LOD ladder (ascending copy).
func (g *Grid) Ladder() []float64 {
	return append([]float64(nil), g.ladder...)
}

// SnapE maps a requested LOD onto the ladder: the largest rung <= e, or
// the lowest rung when e undercuts the whole ladder. Snapping down means
// the served mesh is never coarser than requested.
func (g *Grid) SnapE(e float64) (band int, snapped float64) {
	i := sort.SearchFloat64s(g.ladder, e) // first rung > e is at i if not exact
	if i < len(g.ladder) && g.ladder[i] == e {
		return i, e
	}
	if i == 0 {
		return 0, g.ladder[0]
	}
	return i - 1, g.ladder[i-1]
}

// LevelFor picks the grid level for an ROI: the deepest level whose tile
// side still covers the ROI's larger dimension, clamped to [0, maxLevel].
// Covers then span at most 2x2 tiles (plus boundary inclusivity), and
// similar-size ROIs land on the same level — the sharing precondition.
func (g *Grid) LevelFor(r geom.Rect) int {
	d := r.Width()
	if h := r.Height(); h > d {
		d = h
	}
	if d <= 0 {
		return g.maxLevel
	}
	lv := int(math.Floor(math.Log2(1 / d)))
	if lv < 0 {
		lv = 0
	}
	if lv > g.maxLevel {
		lv = g.maxLevel
	}
	return lv
}

// Cover returns the keys of the tiles intersecting r at the given level
// and band, in Key total order. Indices are clamped to the grid, so ROIs
// reaching past the unit square fall into the (widened) border tiles.
func (g *Grid) Cover(r geom.Rect, level, band int) []Key {
	n := 1 << level
	clamp := func(f float64) int {
		if !(f >= 0) { // also catches NaN
			return 0
		}
		if f > float64(n-1) {
			return n - 1
		}
		return int(f)
	}
	ix0, ix1 := clamp(r.MinX*float64(n)), clamp(r.MaxX*float64(n))
	iy0, iy1 := clamp(r.MinY*float64(n)), clamp(r.MaxY*float64(n))
	out := make([]Key, 0, (ix1-ix0+1)*(iy1-iy0+1))
	for iy := iy0; iy <= iy1; iy++ {
		for ix := ix0; ix <= ix1; ix++ {
			out = append(out, Key{Level: level, IX: ix, IY: iy, Band: band})
		}
	}
	return out
}

// RectFor is the tile footprint: cell boundaries are exact binary
// fractions (ix * 2^-level), and border cells extend to the data space.
func (g *Grid) RectFor(k Key) geom.Rect {
	n := 1 << k.Level
	side := 1.0 / float64(n)
	t := geom.Rect{
		MinX: float64(k.IX) * side, MinY: float64(k.IY) * side,
		MaxX: float64(k.IX+1) * side, MaxY: float64(k.IY+1) * side,
	}
	if k.IX == 0 && g.dataRect.MinX < t.MinX {
		t.MinX = g.dataRect.MinX
	}
	if k.IX == n-1 && g.dataRect.MaxX > t.MaxX {
		t.MaxX = g.dataRect.MaxX
	}
	if k.IY == 0 && g.dataRect.MinY < t.MinY {
		t.MinY = g.dataRect.MinY
	}
	if k.IY == n-1 && g.dataRect.MaxY > t.MaxY {
		t.MaxY = g.dataRect.MaxY
	}
	return t
}

// ValidKey reports whether k addresses a cell of this grid: level within
// depth, indices inside the 2^Level x 2^Level grid, band on the ladder.
// Servers answering tile requests by key validate with it before
// materializing.
func (g *Grid) ValidKey(k Key) bool {
	if k.Level < 0 || k.Level > g.maxLevel {
		return false
	}
	n := 1 << k.Level
	if k.IX < 0 || k.IX >= n || k.IY < 0 || k.IY >= n {
		return false
	}
	return k.Band >= 0 && k.Band < len(g.ladder)
}
