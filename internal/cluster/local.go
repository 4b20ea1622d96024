package cluster

import (
	"fmt"
	"net/http/httptest"
	"sync"

	"dmesh"
	"dmesh/internal/serve"
)

// LocalCluster is an in-process cluster for tests and experiments: N
// shard servers (each a full serve.Server over its own store built from
// one shared terrain) behind httptest front ends, plus a router over
// them. It exercises the real HTTP path — wire encoding, headers,
// fail-stop connection errors — without ports to coordinate.
type LocalCluster struct {
	Terrain *dmesh.Terrain
	Servers []*serve.Server
	HTTP    []*httptest.Server
	Router  *Router

	mu     sync.Mutex
	killed []bool
}

// LocalConfig parameterizes StartLocal.
type LocalConfig struct {
	// Terrain is the dataset every shard serves (required).
	Terrain *dmesh.Terrain
	// Shards is the shard count (required, >= 1).
	Shards int
}

// StartLocal builds and starts an in-process cluster. Callers must
// Close it.
func StartLocal(cfg LocalConfig) (*LocalCluster, error) {
	if cfg.Terrain == nil {
		return nil, fmt.Errorf("cluster: LocalConfig.Terrain is required")
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("cluster: LocalConfig.Shards must be >= 1")
	}
	lc := &LocalCluster{Terrain: cfg.Terrain, killed: make([]bool, cfg.Shards)}
	urls := make([]string, 0, cfg.Shards)
	ids := make([]string, 0, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		s, err := serve.New(serve.Config{Terrain: cfg.Terrain})
		if err != nil {
			lc.Close()
			return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		// Introspection on: the router's /clustermetrics and
		// /clusterslowlog scrape the shards' /metrics and /slowlog.
		ts := httptest.NewServer(s.Handler(true))
		lc.Servers = append(lc.Servers, s)
		lc.HTTP = append(lc.HTTP, ts)
		urls = append(urls, ts.URL)
		// Stable logical identities: httptest ports are random, and
		// hashing them would reshuffle placement on every run.
		ids = append(ids, fmt.Sprintf("shard-%d", i))
	}
	// The router's grid is shard 0's — pure arithmetic over (data rect,
	// max level, ladder), identical on every shard by construction since
	// they share the terrain.
	rt, err := NewRouter(Config{Shards: urls, IDs: ids, Grid: lc.Servers[0].Grid()})
	if err != nil {
		lc.Close()
		return nil, err
	}
	lc.Router = rt
	return lc, nil
}

// KillShard fail-stops shard i: its front end closes immediately,
// in-flight and future requests to it fail at the transport, and the
// router must survive via replicas. Idempotent.
func (lc *LocalCluster) KillShard(i int) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.killed[i] {
		return
	}
	lc.killed[i] = true
	lc.HTTP[i].CloseClientConnections()
	lc.HTTP[i].Close()
}

// Close shuts every still-alive shard down.
func (lc *LocalCluster) Close() {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	for i, ts := range lc.HTTP {
		if !lc.killed[i] {
			lc.killed[i] = true
			ts.Close()
		}
	}
}
