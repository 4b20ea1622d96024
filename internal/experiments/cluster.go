package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"dmesh/internal/cluster"
	"dmesh/internal/geom"
	"dmesh/internal/serve"
	"dmesh/internal/workload"
)

// ClusterShardLoad is one shard's share of a scale-out measurement,
// read from the shard's own obs counters (per-shard DA attribution
// survives the fan-out).
type ClusterShardLoad struct {
	Shard         int     `json:"shard"`
	Patches       uint64  `json:"patches_served"`
	PatchDA       uint64  `json:"patch_disk_accesses"`
	DAPerPatch    float64 `json:"da_per_patch"`
	CacheHits     uint64  `json:"cache_hits"`
	CacheMisses   uint64  `json:"cache_misses"`
	ResidentTiles int     `json:"resident_tiles"`
}

// ClusterPoint is one shard-count measurement of the scale-out figure.
type ClusterPoint struct {
	Shards int `json:"shards"`
	// Queries is the timed query count: Rounds full epochs. The DA
	// figures come from one additional cold-store epoch before it.
	Queries int `json:"queries"`
	Rounds  int `json:"rounds"`

	QPS     float64 `json:"qps"`
	Speedup float64 `json:"speedup"` // QPS relative to the 1-shard point

	P50Micros float64 `json:"p50_micros"`
	P99Micros float64 `json:"p99_micros"`

	// DAPerQuery is the mean store I/O per measured query, summed over
	// every shard the query fanned out to — comparable to the
	// single-node tile-cache steady figure.
	DAPerQuery float64 `json:"da_per_query"`
	// MeanShardDAPerQuery is DAPerQuery averaged over the shards that
	// served it: the I/O one shard pays per cluster query.
	MeanShardDAPerQuery float64 `json:"mean_shard_da_per_query"`

	Redirects  uint64 `json:"redirects"`
	HotKeys    int    `json:"hot_keys_replicated"`
	Replicated int    `json:"replica_warmups"`

	ShardLoads []ClusterShardLoad `json:"shard_loads"`
}

// ClusterFigure is the -fig cluster experiment: QPS and tail latency vs
// shard count under the skewed HotSpot workload, with the single-node
// tile-cache steady-state DA as the reference the per-shard cost must
// stay within noise of.
type ClusterFigure struct {
	Name      string  `json:"dataset"`
	Clients   int     `json:"clients"`
	PerClient int     `json:"per_client"`
	Spots     int     `json:"spots"`
	EPct      float64 `json:"lod_percentile"`

	// SingleNodeSteadyDA is the steady-state mean DA/query of one
	// process's tile cache over the same workload (the tilecache
	// figure's discipline) — the scale-out must not inflate it.
	SingleNodeSteadyDA float64 `json:"single_node_steady_da"`

	Points []ClusterPoint `json:"points"`
}

// ClusterScaleOut measures the sharded tile-serving cluster: for each
// shard count it starts an in-process cluster (real HTTP, real wire
// codec), warms it with one HotSpot epoch, replicates the hot tiles,
// then times a second, freshly drawn epoch with all clients querying
// concurrently. Every measured answer is cross-checked against a
// single-node tile cache (vertex/triangle counts at the snapped LOD),
// so a correctness regression fails the run instead of skewing it.
func (b *Bundle) ClusterScaleOut(seed int64, clients, perClient int, shardCounts []int) (*ClusterFigure, error) {
	if clients <= 0 {
		clients = 8
	}
	if perClient <= 0 {
		perClient = 20
	}
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 2, 4, 8}
	}
	const ePct = 0.95
	e := b.Terrain.LODPercentile(ePct)
	hs := workload.HotSpot{
		Clients:   clients,
		PerClient: perClient,
		AreaFrac:  0.04,
		Seed:      seed,
	}
	hs.Defaults()
	fig := &ClusterFigure{
		Name: b.Name, Clients: hs.Clients, PerClient: hs.PerClient,
		Spots: hs.Spots, EPct: ePct,
	}
	epoch1 := hs.ROIs()
	hs.Epoch = 1
	epoch2 := hs.ROIs()
	queries := hs.Clients * hs.PerClient

	// Single-node reference: a fresh tile cache over its own store, same
	// warm-then-measure discipline. Its epoch-2 meshes double as the
	// correctness oracle for every cluster answer.
	refStore, err := b.Terrain.NewDMStore()
	if err != nil {
		return nil, fmt.Errorf("experiments: cluster reference store: %w", err)
	}
	refCache, err := b.Terrain.NewTileCache(refStore, 0)
	if err != nil {
		return nil, fmt.Errorf("experiments: cluster reference cache: %w", err)
	}
	if err := refStore.DropCaches(); err != nil {
		return nil, err
	}
	for _, qs := range epoch1 {
		for _, r := range qs {
			if _, _, err := refCache.Query(r, e); err != nil {
				return nil, err
			}
		}
	}
	oracles := make(map[geom.Rect]meshOracle)
	var refDA uint64
	for _, qs := range epoch2 {
		for _, r := range qs {
			res, st, err := refCache.Query(r, e)
			if err != nil {
				return nil, err
			}
			refDA += st.DA
			oracles[r] = meshOracle{vertices: len(res.Vertices), triangles: len(res.Triangles)}
		}
	}
	fig.SingleNodeSteadyDA = float64(refDA) / float64(queries)

	var baselineQPS float64
	for _, n := range shardCounts {
		if n < 1 {
			n = 1
		}
		lc, err := cluster.StartLocal(cluster.LocalConfig{Terrain: b.Terrain, Shards: n})
		if err != nil {
			return nil, fmt.Errorf("experiments: cluster with %d shards: %w", n, err)
		}
		pt, err := b.measureClusterPoint(lc, n, epoch1, epoch2, e, oracles)
		lc.Close()
		if err != nil {
			return nil, err
		}
		// Collect the torn-down cluster before the next point: without
		// this, later (larger) points are also measured against the
		// accumulated garbage of earlier ones — a confound monotone in
		// shard count.
		runtime.GC()
		if baselineQPS == 0 {
			baselineQPS = pt.QPS
		}
		pt.Speedup = pt.QPS / baselineQPS
		fig.Points = append(fig.Points, *pt)
	}
	return fig, nil
}

// meshOracle is the single-node answer shape for one ROI; every cluster
// answer must match it exactly.
type meshOracle struct{ vertices, triangles int }

func (b *Bundle) measureClusterPoint(lc *cluster.LocalCluster, n int, epoch1, epoch2 [][]geom.Rect, e float64, oracles map[geom.Rect]meshOracle) (*ClusterPoint, error) {
	// Warm epoch: populate the shard caches, then replicate the hot set
	// onto R=2 so skewed reads can spread.
	for _, qs := range epoch1 {
		for _, r := range qs {
			if _, _, err := lc.Router.Query(r, e); err != nil {
				return nil, fmt.Errorf("experiments: cluster warmup: %w", err)
			}
		}
	}
	rb, err := lc.Router.Rebalance(16, 2)
	if err != nil {
		return nil, err
	}
	// Cold-store discipline for the measured epoch: only the tile caches
	// may carry state across the epoch boundary, exactly like the
	// single-node tile-cache figure.
	for _, s := range lc.Servers {
		if err := s.Store().DropCaches(); err != nil {
			return nil, err
		}
	}
	// patchTotals reads a shard's wire-patch traffic from its registry:
	// patches served and the store disk accesses they cost (cold
	// materializations only).
	patchTotals := func(s *serve.Server) (served, da uint64) {
		return s.Registry().Counter("tileserver_patch_requests_total", "").Value(),
			s.Registry().Histogram("tileserver_patch_disk_accesses", "").Snapshot().Sum
	}
	patches0 := make([]uint64, len(lc.Servers))
	patchDA0 := make([]uint64, len(lc.Servers))
	for i, s := range lc.Servers {
		patches0[i], patchDA0[i] = patchTotals(s)
	}
	redirects0 := lc.Router.Registry().Counter("cluster_router_redirects_total", "").Value()

	// runEpoch plays epoch2 with every client as a goroutine issuing its
	// stream in order, cross-checking each answer against the oracle and
	// recording per-query latencies.
	type clientResult struct {
		da        uint64
		latencies []time.Duration
		err       error
	}
	runEpoch := func() ([]clientResult, time.Duration, error) {
		results := make([]clientResult, len(epoch2))
		var wg sync.WaitGroup
		start := time.Now()
		for ci := range epoch2 {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				cr := &results[ci]
				for _, r := range epoch2[ci] {
					t0 := time.Now()
					res, st, err := lc.Router.Query(r, e)
					cr.latencies = append(cr.latencies, time.Since(t0))
					if err != nil {
						cr.err = fmt.Errorf("experiments: cluster query %v: %w", r, err)
						return
					}
					cr.da += st.DA
					want := oracles[r]
					if len(res.Vertices) != want.vertices || len(res.Triangles) != want.triangles {
						cr.err = fmt.Errorf("experiments: cluster mismatch at %v: %d/%d vertices, %d/%d triangles",
							r, len(res.Vertices), want.vertices, len(res.Triangles), want.triangles)
						return
					}
				}
			}(ci)
		}
		wg.Wait()
		elapsed := time.Since(start)
		for ci := range results {
			if results[ci].err != nil {
				return nil, 0, results[ci].err
			}
		}
		return results, elapsed, nil
	}

	// DA epoch: one cold-store pass — this is the pass comparable to the
	// single-node tile-cache figure, so the DA columns come from it.
	daResults, _, err := runEpoch()
	if err != nil {
		return nil, err
	}
	var da uint64
	daQueries := 0
	for ci := range daResults {
		da += daResults[ci].da
		daQueries += len(daResults[ci].latencies)
	}
	pt := &ClusterPoint{
		Shards:     n,
		DAPerQuery: float64(da) / float64(daQueries),
		Redirects:  lc.Router.Registry().Counter("cluster_router_redirects_total", "").Value() - redirects0,
		HotKeys:    rb.HotKeys,
		Replicated: rb.Replicated,
	}
	pt.MeanShardDAPerQuery = pt.DAPerQuery / float64(n)
	for i, s := range lc.Servers {
		patches, patchDA := patchTotals(s)
		patches -= patches0[i]
		patchDA -= patchDA0[i]
		cs := s.Cache().Stats()
		load := ClusterShardLoad{
			Shard: i, Patches: patches, PatchDA: patchDA,
			CacheHits: cs.Hits, CacheMisses: cs.Misses, ResidentTiles: cs.Entries,
		}
		if patches > 0 {
			load.DAPerPatch = float64(patchDA) / float64(patches)
		}
		pt.ShardLoads = append(pt.ShardLoads, load)
	}

	// Timed epochs: the caches are now steady, so repeat the epoch a few
	// times and pool the latencies — one epoch is only a second or two of
	// wall clock, short enough for a single scheduler stall to dominate
	// the QPS number on a small host.
	const rounds = 3
	runtime.GC()
	var lats []time.Duration
	var elapsed time.Duration
	queries := 0
	for round := 0; round < rounds; round++ {
		results, d, err := runEpoch()
		if err != nil {
			return nil, err
		}
		elapsed += d
		for ci := range results {
			lats = append(lats, results[ci].latencies...)
			queries += len(results[ci].latencies)
		}
	}
	pt.Queries = queries
	pt.Rounds = rounds
	pt.QPS = float64(queries) / elapsed.Seconds()
	pt.P50Micros = latPct(lats, 0.50)
	pt.P99Micros = latPct(lats, 0.99)
	return pt, nil
}
