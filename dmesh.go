// Package dmesh is the public facade of the Direct Mesh reproduction
// (Xu, Zhou, Lin; ICDE 2004): multiresolution terrain storage and
// query processing over a relational-style page store.
//
// The typical flow:
//
//	t, err := dmesh.Build(dmesh.Config{Dataset: "highland", Size: 257, Seed: 1})
//	store, err := t.NewDMStore()
//	res, err := store.ViewpointIndependent(dmesh.NewRect(0.2, 0.2, 0.6, 0.6), t.LODPercentile(0.5))
//	// res.Vertices, res.Edges, res.Triangles hold the approximation.
//
// Build generates a synthetic terrain, triangulates it, simplifies it with
// quadric error metrics into a progressive-mesh collapse sequence, and
// derives the Direct Mesh dataset (LOD intervals + connection lists). The
// New*Store methods lay the data out on paged storage: NewDMStore for the
// paper's contribution (heap file + 3D R*-tree), NewPMStore for the
// progressive-mesh baseline on an LOD-quadtree, NewHDoVStore for the
// HDoV-tree baseline. All stores count disk accesses the way the paper
// measures them.
package dmesh

import (
	"fmt"
	"io"
	"sort"

	"dmesh/internal/costmodel"
	"dmesh/internal/delaunay"
	"dmesh/internal/demio"
	"dmesh/internal/dm"
	"dmesh/internal/geom"
	"dmesh/internal/hdov"
	"dmesh/internal/heightfield"
	"dmesh/internal/mesh"
	"dmesh/internal/obs"
	"dmesh/internal/pm"
	"dmesh/internal/simplify"
	"dmesh/internal/tilecache"
)

// Re-exported geometry types: these appear throughout the query API.
type (
	// Rect is an axis-aligned region of interest in the (x, y) plane.
	Rect = geom.Rect
	// Point3 is a terrain point.
	Point3 = geom.Point3
	// QueryPlane describes a viewpoint-dependent query: LOD varying
	// linearly across the ROI.
	QueryPlane = geom.QueryPlane
	// Triangle is a triangle over vertex IDs.
	Triangle = geom.Triangle
	// Result is a Direct Mesh query result.
	Result = dm.Result
	// DMStore is the disk-resident Direct Mesh.
	DMStore = dm.Store
	// DMSession is a per-request view of a DMStore that attributes disk
	// accesses to itself (DMStore.NewSession), enabling concurrent
	// serving without a global query lock.
	DMSession = dm.Session
	// DMCoherentSession answers a temporally coherent frame sequence (a
	// terrain flyover) incrementally, retaining the previous frame's
	// fetched nodes (DMStore.NewCoherentSession).
	DMCoherentSession = dm.CoherentSession
	// FrameStats describes how one coherent frame was answered: delta vs
	// full, nodes retained/fetched/evicted, disk accesses.
	FrameStats = dm.FrameStats
	// DMTileCache serves uniform queries from a shared cache of
	// materialized mesh tiles (quadtree grid x discrete LOD ladder), so
	// overlapping ROIs from many clients cost one materialization
	// (Terrain.NewTileCache, tilecache.New).
	DMTileCache = tilecache.Cache
	// TileCacheStats is a DMTileCache counter snapshot (hits, misses,
	// singleflight dedups, evictions, bytes).
	TileCacheStats = tilecache.Stats
	// TileQueryStats describes how one DMTileCache.Query was answered
	// (snapped LOD, tiles stitched, cold misses, disk accesses).
	TileQueryStats = tilecache.QueryStats
	// BatchQuery describes one independent query for DMStore.QueryBatch.
	BatchQuery = dm.BatchQuery
	// BatchResult is one QueryBatch outcome: mesh, per-query disk
	// accesses, error.
	BatchResult = dm.BatchResult
	// PMStore is the disk-resident Progressive Mesh baseline.
	PMStore = pm.Store
	// HDoVStore is the disk-resident HDoV-tree baseline.
	HDoVStore = hdov.Store
	// CostModel estimates range-query disk accesses for the multi-base
	// optimizer.
	CostModel = costmodel.Model
)

// ColdMeasurable is the store-side contract of a paper-style measured
// query: drop every buffer pool, zero the counters, run, read the
// disk-access total. DMStore, DMSession, PMStore, and HDoVStore all
// satisfy it.
type ColdMeasurable = obs.ColdMeasurable

// QueryTrace records one query's hierarchical phase spans with exact
// per-phase disk-access attribution (see internal/obs). Install on a
// store with DMStore.SetTrace, or per session with DMSession.NewTrace.
type QueryTrace = obs.Trace

// NewQueryTrace builds a trace sampling the given monotone disk-access
// counter (e.g. a DMSession's DiskAccesses method). A nil sampler makes
// a charge-based trace for callers that attribute DA explicitly, like
// DMTileCache.QueryTraced.
func NewQueryTrace(sample func() uint64) *QueryTrace { return obs.NewTrace(sample) }

// MeasuredRun executes fn as a cold measured query — DropCaches +
// ResetStats, then fn, then the store's disk-access total — the exact
// prologue the paper's cold-cache methodology requires. The DA count is
// returned even when fn fails.
func MeasuredRun(s ColdMeasurable, fn func() error) (uint64, error) {
	return obs.MeasuredRun(s, fn)
}

// NewRect returns the rectangle spanning two corners given in any order.
func NewRect(x0, y0, x1, y1 float64) Rect { return geom.NewRect(x0, y0, x1, y1) }

// Config selects a terrain and its preprocessing.
type Config struct {
	// Dataset is "highland" (the stand-in for the paper's 2M-point mining
	// terrain) or "crater" (the stand-in for the 17M-point Crater Lake
	// DEM).
	Dataset string
	// Size is the heightfield side length; Size*Size points.
	Size int
	// Seed makes generation deterministic.
	Seed int64
	// VerticalDistanceError selects the simple vertical-distance error
	// measure instead of quadric error metrics.
	VerticalDistanceError bool
}

// Terrain bundles a generated terrain with its multiresolution structures.
type Terrain struct {
	Config   Config
	Grid     *heightfield.Grid
	Mesh     *mesh.Mesh
	Sequence *simplify.Sequence
	Dataset  *dm.Dataset

	sortedLODs []float64
}

// Build generates a synthetic terrain and its multiresolution structures.
func Build(cfg Config) (*Terrain, error) {
	if cfg.Dataset == "" {
		cfg.Dataset = "highland"
	}
	if cfg.Size == 0 {
		cfg.Size = 129
	}
	g, err := heightfield.Named(cfg.Dataset, cfg.Size, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return BuildFromGrid(g, cfg)
}

// BuildFromGrid builds the multiresolution structures over an existing
// heightfield (for example one read with ReadASCIIGrid). Heights keep
// their original units, so LOD values come out in those units too; callers
// with very different horizontal and vertical scales should normalize
// first (heightfield.Grid.Normalize). Config.Dataset and Config.Size are
// ignored.
func BuildFromGrid(g *heightfield.Grid, cfg Config) (*Terrain, error) {
	return finishBuild(cfg, g, mesh.FromGrid(g))
}

// BuildFromPoints builds the multiresolution structures over an irregular
// point set in the unit square (for example one read with ReadXYZ, or
// survey-style samples of a heightfield: the paper's "irregular mesh"
// input), Delaunay-triangulating it first. Config generation fields are
// ignored.
func BuildFromPoints(pts []Point3, cfg Config) (*Terrain, error) {
	pts2 := make([]geom.Point2, len(pts))
	for i, p := range pts {
		pts2[i] = p.XY()
	}
	tris, err := delaunay.Triangulate(pts2)
	if err != nil {
		return nil, fmt.Errorf("dmesh: triangulate points: %w", err)
	}
	m := &mesh.Mesh{Positions: append([]geom.Point3(nil), pts...), Tris: tris}
	return finishBuild(cfg, nil, m)
}

// finishBuild runs the shared tail of every construction path:
// simplification, Direct Mesh derivation, LOD statistics. grid may be nil
// for point-set inputs (visibility-dependent features like the HDoV
// baseline then need an explicit grid).
func finishBuild(cfg Config, g *heightfield.Grid, m *mesh.Mesh) (*Terrain, error) {
	opts := simplify.Options{}
	if cfg.VerticalDistanceError {
		opts.Metric = simplify.VerticalDistance
	}
	seq, err := simplify.Run(m, opts)
	if err != nil {
		return nil, fmt.Errorf("dmesh: simplify: %w", err)
	}
	ds, err := dm.FromSequence(seq)
	if err != nil {
		return nil, err
	}
	t := &Terrain{Config: cfg, Grid: g, Mesh: m, Sequence: seq, Dataset: ds}
	for i := range ds.Tree.Nodes {
		if !ds.Tree.Nodes[i].IsLeaf() {
			t.sortedLODs = append(t.sortedLODs, ds.Tree.Nodes[i].ELow)
		}
	}
	sort.Float64s(t.sortedLODs)
	return t, nil
}

// NumPoints returns the number of original terrain points.
func (t *Terrain) NumPoints() int { return t.Sequence.BaseVertices }

// MaxLOD returns the dataset's maximum LOD value (the root's error).
func (t *Terrain) MaxLOD() float64 { return t.Dataset.MaxE() }

// LODPercentile maps p in [0, 1] to the p-th percentile of the internal
// nodes' LOD values; p below 0, and NaN, read as 0, and p above 1 as 1.
// Raw quadric errors are extremely skewed, so percentiles are how
// meaningful LOD sweeps are expressed.
func (t *Terrain) LODPercentile(p float64) float64 {
	if len(t.sortedLODs) == 0 {
		return 0
	}
	if !(p >= 0) {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return t.sortedLODs[int(p*float64(len(t.sortedLODs)-1))]
}

// StorePools re-exports the Direct Mesh store pool configuration.
type StorePools = dm.StorePools

// Layout selects the record encoding of Direct Mesh records on disk.
type Layout = dm.Layout

// Physical record layouts (see dm.Layout), both in the R*-tree's leaf
// order. LayoutPacked — compressed delta-varint records — is the zero
// value and what every store is built in unless a layout is named;
// LayoutSTR is the same clustering on fixed-size records, the design the
// paper's figures are measured on.
const (
	LayoutPacked = dm.LayoutPacked
	LayoutSTR    = dm.LayoutSTR
)

// ParseLayout parses a layout flag value ("packed" or "str").
func ParseLayout(name string) (Layout, error) { return dm.ParseLayout(name) }

// NewDMStore lays the Direct Mesh out on paged storage: packed records
// clustered on a 3D R*-tree over vertical segments (its STR leaf order),
// and a B+-tree by ID. Every store holds live-ID sets for the rungs of its
// LOD ladder (DefaultLODLadder), the LODs NewTileCache materializes tiles
// at.
func (t *Terrain) NewDMStore() (*DMStore, error) {
	return t.NewDMStoreWithPools(StorePools{})
}

// NewDMStoreWithPools is NewDMStore with explicit buffer-pool sizes.
func (t *Terrain) NewDMStoreWithPools(pools StorePools) (*DMStore, error) {
	return dm.BuildStore(t.Dataset, pools)
}

// BuildDMStoreAt builds the Direct Mesh store as files in dir, reopenable
// with OpenDMStore.
func (t *Terrain) BuildDMStoreAt(dir string) (*DMStore, error) {
	return t.BuildDMStoreAtWithPools(StorePools{}, dir)
}

// BuildDMStoreAtWithPools is BuildDMStoreAt with explicit pool
// configuration (layout, buffer sizes, checksums).
func (t *Terrain) BuildDMStoreAtWithPools(pools StorePools, dir string) (*DMStore, error) {
	return dm.BuildStoreAt(t.Dataset, pools, dir)
}

// OpenDMStore opens a store directory written by BuildDMStoreAt. A
// directory in an older format is refused with an error that says to
// rebuild it with dmbuild.
func OpenDMStore(dir string) (*DMStore, error) {
	return dm.OpenStore(dir, dm.StorePools{})
}

// DefaultLODLadder returns the LOD ladder of every store built from this
// terrain (dm.LODLadder): the discrete LODs tiles are materialized at, a
// spread of the terrain's LOD percentiles from mid-detail to the coarse
// end, deduplicated and ascending.
func (t *Terrain) DefaultLODLadder() []float64 { return dm.LODLadder(t.Dataset) }

// NewTileCache builds a shared mesh-tile cache over a DM store, on the
// store's LOD ladder. maxBytes <= 0 selects the default byte budget.
func (t *Terrain) NewTileCache(s *DMStore, maxBytes int) (*DMTileCache, error) {
	return tilecache.New(tilecache.Config{Store: s, MaxBytes: max(maxBytes, 0)})
}

// NewCostModel scans a DM store's R*-tree into the cost model driving the
// multi-base optimizer. Build it once per store (a once-off cost).
func NewCostModel(s *DMStore) (*CostModel, error) {
	return s.CostModel()
}

// NewPMStore lays the Progressive Mesh baseline out on an LOD-quadtree
// with a B+-tree ID index (the paper's PM + LOD-quadtree configuration).
func (t *Terrain) NewPMStore() (*PMStore, error) {
	return pm.BuildStore(t.Dataset.Tree)
}

// NewHDoVStore builds the HDoV-tree baseline (LOD-R-tree with
// visibility). It needs the source heightfield for the visibility
// precomputation, so it is unavailable for point-set terrains.
func (t *Terrain) NewHDoVStore() (*HDoVStore, error) {
	if t.Grid == nil {
		return nil, fmt.Errorf("dmesh: HDoV store needs a heightfield terrain (built from a grid)")
	}
	return hdov.Build(t.Dataset.Tree, t.Grid, hdov.Options{})
}

// ReadASCIIGrid parses an ESRI/Arc-Info ASCII grid DEM (the format USGS
// DEMs ship in) into a heightfield usable with BuildFromGrid.
func ReadASCIIGrid(r io.Reader) (*heightfield.Grid, error) {
	g, _, err := demio.ReadASCIIGrid(r)
	return g, err
}

// ReadXYZ parses "x y z" survey points (normalized into the unit square)
// usable with BuildFromPoints.
func ReadXYZ(r io.Reader) ([]Point3, error) {
	pts, _, err := demio.ReadXYZ(r)
	return pts, err
}
