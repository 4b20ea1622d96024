package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"dmesh"
	"dmesh/internal/cluster"
	"dmesh/internal/dm"
	"dmesh/internal/heightfield"
	"dmesh/internal/serve"
	"dmesh/internal/storage/pager"
	"dmesh/internal/tilecache"
)

// Set-up stages, in the order a run pays them. Their sum is setup_s.
const (
	stageHeightfield = "heightfield"
	stageTerrain     = "terrain" // triangulate + simplify + dm.FromSequence
	stageStore       = "store"
	stageCostModel   = "costmodel"
	stageServerStart = "server_start"
	stageWarmup      = "warmup"
)

// system is the program under test, as much of it as one workload needs:
// the terrain plus a 2-shard cluster, a single node, or a file-backed
// store. The traced pass starts the remaining pieces afterwards so every
// layer can be probed; those are not part of set-up.
type system struct {
	size    int
	tmp     string // scratch directory for store files, inside -out
	terrain *dmesh.Terrain
	host    prober
	stages  map[string]float64 // seconds per set-up stage, at reference host speed; nil: not part of set-up

	// 2-shard cluster behind loopback HTTP, and the router the clients
	// use: same shards and ring identities as lc.Router, over a client
	// that counts the response bytes it receives.
	lc   *cluster.LocalCluster
	rt   *cluster.Router
	wire *countingTransport

	// Single node behind loopback HTTP.
	node   *serve.Server
	nodeTS *httptest.Server
	httpc  *http.Client

	// File-backed store with a pool far smaller than the data.
	cold      *dmesh.DMStore
	coldModel *dmesh.CostModel
}

// coldPools is 64 of ~6.3k data pages at 257²: every query misses.
var coldPools = dmesh.StorePools{Data: 64, Overflow: 16, Index: 64, IDIndex: 16}

func newSystem(size int, outDir string) (*system, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	return &system{size: size, tmp: tmp, stages: make(map[string]float64)}, nil
}

// stage runs fn and charges its wall time, at reference host speed, to a
// set-up stage.
func (s *system) stage(name string, fn func() error) (err error) {
	if s.stages == nil {
		err = fn()
	} else {
		wall, speed := s.host.around(func() { err = fn() })
		s.stages[name] += wall * speed
	}
	if err != nil {
		return fmt.Errorf("set-up stage %s: %w", name, err)
	}
	return nil
}

func (s *system) setupSeconds() float64 {
	var sum float64
	for _, v := range s.stages {
		sum += v
	}
	return sum
}

// buildTerrain is the fixed dataset: highland, terrain seed 1.
func (s *system) buildTerrain() error {
	var g *heightfield.Grid
	if err := s.stage(stageHeightfield, func() (err error) {
		g, err = heightfield.Named("highland", s.size, 1)
		return err
	}); err != nil {
		return err
	}
	return s.stage(stageTerrain, func() (err error) {
		s.terrain, err = dmesh.BuildFromGrid(g, dmesh.Config{Dataset: "highland", Size: s.size, Seed: 1})
		return err
	})
}

// newTransport is http.DefaultTransport sized for fan-out, as the
// router's own default client is.
func newTransport() *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 256
	tr.MaxIdleConnsPerHost = 64
	return tr
}

// countingTransport counts the response-body bytes its client reads.
type countingTransport struct {
	base  *http.Transport
	bytes atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.bytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// startCluster starts the 2-shard cluster (stores, cost models, caches
// and HTTP front ends are all built inside StartLocal, so the whole of
// it is one stage).
func (s *system) startCluster() error {
	return s.stage(stageServerStart, func() (err error) {
		s.lc, err = cluster.StartLocal(cluster.LocalConfig{Terrain: s.terrain, Shards: 2})
		if err != nil {
			return err
		}
		urls := make([]string, len(s.lc.HTTP))
		for i, ts := range s.lc.HTTP {
			urls[i] = ts.URL
		}
		s.wire = &countingTransport{base: newTransport()}
		s.rt, err = cluster.NewRouter(cluster.Config{
			Shards: urls,
			IDs:    s.lc.Router.Ring().IDs(),
			Grid:   s.lc.Router.Grid(),
			Client: &http.Client{Timeout: 30 * time.Second, Transport: s.wire},
		})
		return err
	})
}

// startNode starts a single node; cacheMaxBytes 0 is the 64 MiB default.
func (s *system) startNode(cacheMaxBytes int) error {
	var store *dmesh.DMStore
	if err := s.stage(stageStore, func() (err error) {
		store, err = s.terrain.NewDMStoreWithPools(dmesh.StorePools{Shards: runtime.NumCPU()})
		return err
	}); err != nil {
		return err
	}
	return s.stage(stageServerStart, func() (err error) {
		s.node, err = serve.New(serve.Config{Terrain: s.terrain, Store: store, CacheMaxBytes: cacheMaxBytes})
		if err != nil {
			return err
		}
		s.nodeTS = httptest.NewServer(s.node.Handler(true))
		s.httpc = &http.Client{Timeout: 30 * time.Second, Transport: newTransport()}
		return nil
	})
}

// startCold builds the file-backed store and its cost model.
func (s *system) startCold() error {
	if err := s.stage(stageStore, func() (err error) {
		s.cold, err = s.terrain.BuildDMStoreAtWithPools(coldPools, filepath.Join(s.tmp, "cold"))
		return err
	}); err != nil {
		return err
	}
	return s.stage(stageCostModel, func() (err error) {
		s.coldModel, err = dmesh.NewCostModel(s.cold)
		return err
	})
}

// stores lists the stores that served the workload, for the pager
// breakdown and the footprint figure.
func (s *system) stores() []*dmesh.DMStore {
	switch {
	case s.cold != nil:
		return []*dmesh.DMStore{s.cold}
	case s.node != nil:
		return []*dmesh.DMStore{s.node.Store()}
	}
	var out []*dmesh.DMStore
	for _, sv := range s.lc.Servers {
		out = append(out, sv.Store())
	}
	return out
}

// servers lists the serve.Servers that served the workload.
func (s *system) servers() []*serve.Server {
	switch {
	case s.cold != nil:
		return nil
	case s.node != nil:
		return []*serve.Server{s.node}
	}
	return s.lc.Servers
}

// cacheStats sums the tile-cache counters of the workload's servers.
func (s *system) cacheStats() tilecache.Stats {
	var sum tilecache.Stats
	for _, sv := range s.servers() {
		st := sv.Cache().Stats()
		sum.TileLookups += st.TileLookups
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.DedupedMisses += st.DedupedMisses
		sum.Evictions += st.Evictions
		sum.MaterializeDA += st.MaterializeDA
		sum.Bytes += st.Bytes
	}
	return sum
}

// breakdown sums the per-file disk accesses of the workload's stores.
func (s *system) breakdown() dm.AccessBreakdown {
	var sum dm.AccessBreakdown
	for _, st := range s.stores() {
		b := st.Breakdown()
		sum.Data += b.Data
		sum.Overflow += b.Overflow
		sum.Index += b.Index
		sum.IDIndex += b.IDIndex
	}
	return sum
}

// errorResponses sums the servers' error-response counters.
func (s *system) errorResponses() uint64 {
	var sum uint64
	for _, sv := range s.servers() {
		sum += sv.Registry().Counter("tileserver_request_errors_total", "").Value()
	}
	return sum
}

// dataBytesPerPoint is the served store's data footprint per terrain
// point.
func (s *system) dataBytesPerPoint() float64 {
	st := s.stores()[0]
	return float64(st.DataPages()+st.OverflowPages()) * pager.PageSize / float64(s.terrain.NumPoints())
}

// close stops every server and removes the scratch files. It waits for
// the HTTP front ends to drain.
func (s *system) close() {
	if s.lc != nil {
		s.lc.Close()
		s.wire.base.CloseIdleConnections()
	}
	if s.nodeTS != nil {
		s.nodeTS.Close()
		s.httpc.CloseIdleConnections()
	}
	if s.cold != nil {
		s.cold.Close()
	}
	os.RemoveAll(s.tmp)
}
