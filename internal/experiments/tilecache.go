package experiments

import (
	"fmt"
	"sync"

	"dmesh/internal/workload"
)

// TileCacheFigure is the -fig tilecache experiment: the skewed
// multi-client workload answered by the plain engine (every query pays
// its own disk accesses, cold cache per query — the paper's stateless
// methodology) vs the shared mesh-tile cache (overlapping ROIs share
// materialized tiles; only cold tiles touch the store).
type TileCacheFigure struct {
	Name      string
	Clients   int
	PerClient int
	Spots     int
	EPct      float64 // LOD percentile the workload queries at

	// UncachedDA is the mean disk accesses per query of the direct
	// engine, caches dropped before every query.
	UncachedDA float64
	// CachedColdDA is the mean per-query disk accesses of the first
	// epoch through the tile cache, every client racing concurrently
	// from a cold cache and a cold store — includes all materialization.
	CachedColdDA float64
	// CachedSteadyDA is the mean per-query disk accesses of a second,
	// freshly drawn epoch over the same hot spots, caches dropped before
	// every query — the steady-state serving cost.
	CachedSteadyDA float64
	// Speedup is UncachedDA / CachedSteadyDA.
	Speedup float64

	// Cache counters over both epochs.
	Lookups       uint64 // tile lookups: ColdMisses + DedupedMisses + Hits
	ColdMisses    uint64 // tiles materialized
	DedupedMisses uint64 // concurrent lookups that waited on a flight
	Hits          uint64 // lookups served from resident tiles
	Evictions     uint64
	Tiles         int // resident tiles at the end
	Bytes         int // resident bytes at the end
}

// TileCacheSharing measures the shared-tile-cache experiment on a
// dedicated store (the bundle's stores keep their global counters
// untouched). Every cached answer is cross-checked against the direct
// engine's mesh (vertex and triangle counts at the snapped LOD), so a
// correctness regression fails the measurement instead of skewing it.
func (b *Bundle) TileCacheSharing(seed int64, clients, perClient int) (*TileCacheFigure, error) {
	if clients <= 0 {
		clients = 8
	}
	if perClient <= 0 {
		perClient = 20
	}
	const ePct = 0.95
	store, err := b.Terrain.NewDMStore()
	if err != nil {
		return nil, fmt.Errorf("experiments: tilecache store: %w", err)
	}
	cache, err := b.Terrain.NewTileCache(store, 0)
	if err != nil {
		return nil, fmt.Errorf("experiments: tilecache: %w", err)
	}
	e := b.Terrain.LODPercentile(ePct)
	hs := workload.HotSpot{
		Clients:   clients,
		PerClient: perClient,
		AreaFrac:  0.04,
		Seed:      seed,
	}
	hs.Defaults()
	fig := &TileCacheFigure{
		Name: b.Name, Clients: hs.Clients, PerClient: hs.PerClient,
		Spots: hs.Spots, EPct: ePct,
	}
	epoch1 := hs.ROIs()
	hs.Epoch = 1
	epoch2 := hs.ROIs()
	queries := float64(hs.Clients * hs.PerClient)

	// Uncached baseline: the paper's cold-cache discipline, one query at
	// a time (epoch 1's exact query set).
	var uncachedDA uint64
	for _, qs := range epoch1 {
		for _, r := range qs {
			if err := store.DropCaches(); err != nil {
				return nil, err
			}
			store.ResetStats()
			if _, err := store.ViewpointIndependent(r, cache.SnapE(e)); err != nil {
				return nil, err
			}
			uncachedDA += store.DiskAccesses()
		}
	}
	fig.UncachedDA = float64(uncachedDA) / queries

	// Epoch 1 through the cache: all clients race from a cold cache and
	// a cold store, so the singleflight dedup is exercised for real. Each
	// query's disk accesses come from its own session (charges sum to the
	// store's true I/O).
	if err := store.DropCaches(); err != nil {
		return nil, err
	}
	daByClient := make([]uint64, hs.Clients)
	errs := make([]error, hs.Clients)
	var wg sync.WaitGroup
	for ci := range epoch1 {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for _, r := range epoch1[ci] {
				_, qs, err := cache.Query(r, e)
				if err != nil {
					errs[ci] = err
					return
				}
				daByClient[ci] += qs.DA
			}
		}(ci)
	}
	wg.Wait()
	var coldDA uint64
	for ci := range daByClient {
		if errs[ci] != nil {
			return nil, errs[ci]
		}
		coldDA += daByClient[ci]
	}
	fig.CachedColdDA = float64(coldDA) / queries

	// Epoch 2: fresh draws over the same hot spots, measured one query at
	// a time under the same drop-caches discipline as the baseline — the
	// tile cache is the only state allowed to survive. Every answer is
	// cross-checked against the direct engine.
	var steadyDA uint64
	for _, qs := range epoch2 {
		for _, r := range qs {
			if err := store.DropCaches(); err != nil {
				return nil, err
			}
			res, st, err := cache.Query(r, e)
			if err != nil {
				return nil, err
			}
			steadyDA += st.DA
			want, err := store.ViewpointIndependent(r, st.SnappedE)
			if err != nil {
				return nil, err
			}
			if len(res.Vertices) != len(want.Vertices) || len(res.Triangles) != len(want.Triangles) {
				return nil, fmt.Errorf("experiments: tilecache mismatch at %v: %d/%d vertices, %d/%d triangles",
					r, len(res.Vertices), len(want.Vertices), len(res.Triangles), len(want.Triangles))
			}
		}
	}
	fig.CachedSteadyDA = float64(steadyDA) / queries
	if fig.CachedSteadyDA > 0 {
		fig.Speedup = fig.UncachedDA / fig.CachedSteadyDA
	}

	st := cache.Stats()
	fig.Lookups = st.TileLookups
	fig.ColdMisses = st.Misses
	fig.DedupedMisses = st.DedupedMisses
	fig.Hits = st.Hits
	fig.Evictions = st.Evictions
	fig.Tiles = st.Entries
	fig.Bytes = st.Bytes
	return fig, nil
}
