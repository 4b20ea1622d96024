// Package serve is the reusable HTTP tile-serving core extracted from
// examples/tileserver: the hardened single-process server (shared mesh-
// tile cache, per-request store sessions, coherent camera sessions, obs
// registry + slow log + introspection endpoints) behind an importable
// API, so a cluster shard is exactly the example server over a subset of
// tile keys.
//
// The four query endpoints are rows of one table (routes.go) served by
// one pipeline: /tile and /frame answer JSON, and the shard-facing
// surface the cluster router consumes answers bytes:
//
//   - /patch?level=&ix=&iy=&band= — one canonical tile, materialized
//     through the shared cache and returned in the deterministic binary
//     wire encoding (dm.EncodeTilePatch, memoized per resident tile);
//     per-request disk accesses and cache coldness travel in X-DM-DA /
//     X-DM-Cold headers.
//   - /stream?x0=&y0=&x1=&y1=&lod=&resume= — the progressive answer: a
//     chunked body carrying the internal/stream header plus one delta
//     batch per LOD-ladder rung, coarse to fine, each flushed as soon as
//     its rung's query completes. resume=K (the last fully received
//     batch index) re-sends the header and skips batches <= K, so an
//     interrupted client pays only for what it never got.
//   - /hottiles?n=K — the cache's top-K hottest tiles (hit-count order,
//     Key total-order tie-breaks), the router's replication input.
//   - /gridinfo — the tile grid parameters (data rect, max level, LOD
//     ladder), so any client can verify it quantizes like the shard.
//
// Every number the server keeps lives in one registry, served at
// /metrics. Start runs the server on a listener; Shutdown drains: it
// stops accepting, then blocks until every in-flight request (tile
// fetches included) has completed or the context expires.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dmesh"
	"dmesh/internal/obs"
	"dmesh/internal/tilecache"
)

// Config parameterizes a Server. Terrain is required; everything else
// has a serviceable zero value.
type Config struct {
	// Terrain is the dataset to serve. Shards of one cluster share a
	// single *dmesh.Terrain and each build their own store over it.
	Terrain *dmesh.Terrain
	// Store serves the queries; nil builds one from Terrain with one
	// buffer-pool shard per CPU.
	Store *dmesh.DMStore
	// CacheMaxBytes caps the shared tile cache (0 = tilecache default).
	CacheMaxBytes int
	// SlowThreshold is the slow-log admission threshold (0 admits all).
	SlowThreshold time.Duration
}

const (
	// slowLogSize is the slow-log ring capacity.
	slowLogSize = 128
	// maxCameras caps the retained coherent sessions; the least recently
	// used one is dropped when a new client would exceed it.
	maxCameras = 64

	// Listener limits. A client gets readHeaderTimeout to deliver its
	// request head and an idle keep-alive connection is closed after
	// idleTimeout. There is deliberately no blanket WriteTimeout: /stream
	// and /debug/pprof/profile are long by design, and a deadline on
	// them belongs to the request, not the listener.
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
)

// Server is the serving core: store, tile cache, coherent camera
// sessions, and the telemetry behind the introspection endpoints.
type Server struct {
	terrain *dmesh.Terrain
	store   *dmesh.DMStore
	model   *dmesh.CostModel
	cache   *dmesh.DMTileCache
	ladder  []float64 // cache.Grid().Ladder(), held once: the accessor copies

	inflight atomic.Int64

	// Telemetry: the registry behind /metrics — the one place numbers
	// live — and the ring-buffered slow-request log behind /slowlog.
	reg          *obs.Registry
	slow         *obs.SlowLog
	endpoints    []endpointMetrics // parallel to routes
	streamBytes  *obs.Histogram
	reqErrors    *obs.Counter
	camEvictions *obs.Counter

	// Named coherent sessions, one per animating client. A coherent
	// session is stateful and not safe for concurrent use, so each entry
	// carries its own lock; the map itself has another.
	camMu   sync.Mutex
	cameras map[string]*camera

	headerTimeout time.Duration // readHeaderTimeout; tests shorten it before Start

	httpMu  sync.Mutex
	httpSrv *http.Server
}

// endpointMetrics is one query endpoint's accounting, written only by
// the pipeline (Server.serve).
type endpointMetrics struct {
	served  *obs.Counter   // requests answered 200
	da      *obs.Histogram // store disk accesses of every request that ran, served or not
	latency *obs.Histogram // parse through render — all but the write — of every request
}

type camera struct {
	mu       sync.Mutex
	cs       *dmesh.DMCoherentSession
	tr       *obs.Trace // the session's trace; reset every frame
	lastUsed time.Time
}

// New builds the store (unless provided), the tile cache, and the
// telemetry plumbing over cfg.Terrain.
func New(cfg Config) (*Server, error) {
	if cfg.Terrain == nil {
		return nil, fmt.Errorf("serve: Config.Terrain is required")
	}
	store := cfg.Store
	if store == nil {
		var err error
		store, err = cfg.Terrain.NewDMStoreWithPools(dmesh.StorePools{Shards: runtime.NumCPU()})
		if err != nil {
			return nil, err
		}
	}
	model, err := dmesh.NewCostModel(store)
	if err != nil {
		return nil, err
	}
	cache, err := cfg.Terrain.NewTileCache(store, cfg.CacheMaxBytes)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	s := &Server{
		terrain: cfg.Terrain, store: store, model: model, cache: cache,
		ladder:        cache.Grid().Ladder(),
		cameras:       make(map[string]*camera),
		reg:           reg,
		slow:          obs.NewSlowLog(slowLogSize, cfg.SlowThreshold),
		streamBytes:   reg.Histogram("tileserver_stream_bytes", "bytes written per progressive stream"),
		reqErrors:     reg.Counter("tileserver_request_errors_total", "requests answered with an error status, and streams cut short"),
		camEvictions:  reg.Counter("tileserver_camera_evictions_total", "coherent sessions dropped from the LRU"),
		headerTimeout: readHeaderTimeout,
	}
	for _, rt := range routes {
		s.endpoints = append(s.endpoints, endpointMetrics{
			served:  reg.Counter("tileserver_"+rt.name+"_requests_total", rt.name+" requests served"),
			da:      reg.Histogram("tileserver_"+rt.name+"_disk_accesses", "disk accesses per "+rt.name+" request, failed ones included"),
			latency: reg.Histogram("tileserver_"+rt.name+"_latency_nanos", rt.name+" request latency in nanoseconds"),
		})
	}
	// Facts other subsystems already keep are read at scrape time. The
	// store total is the reconciliation target: every disk access a
	// request causes lands in exactly one endpoint's histogram sum.
	reg.GaugeFunc("tileserver_store_disk_accesses", "pages the store has read from its files", func() int64 {
		return int64(store.DiskAccesses())
	})
	reg.GaugeFunc("tileserver_cameras_active", "retained coherent sessions", func() int64 {
		s.camMu.Lock()
		defer s.camMu.Unlock()
		return int64(len(s.cameras))
	})
	reg.GaugeFunc("tileserver_inflight_requests", "requests currently being served", s.inflight.Load)
	type cs = dmesh.TileCacheStats
	for _, g := range []struct {
		name, help string
		read       func(cs) int
	}{
		{"entries", "resident tile-cache patches", func(st cs) int { return st.Entries }},
		{"bytes", "estimated resident tile-cache bytes", func(st cs) int { return st.Bytes }},
		{"queries", "tile-cache queries", func(st cs) int { return int(st.Queries) }},
		{"tile_lookups", "tile fetches (several per query)", func(st cs) int { return int(st.TileLookups) }},
		{"hits", "lookups served from a resident patch", func(st cs) int { return int(st.Hits) }},
		{"misses", "lookups that materialized the patch", func(st cs) int { return int(st.Misses) }},
		{"deduped_misses", "lookups that waited on another's materialization", func(st cs) int { return int(st.DedupedMisses) }},
		{"evictions", "patches evicted for space", func(st cs) int { return int(st.Evictions) }},
		{"invalidations", "cache invalidation calls", func(st cs) int { return int(st.Invalidations) }},
		{"materialize_disk_accesses", "disk accesses spent materializing tiles", func(st cs) int { return int(st.MaterializeDA) }},
		{"unretained", "patches served but too large to retain", func(st cs) int { return st.UnretainedOver }},
		{"outpairs_kept", "seam out-pairs materialized tiles kept", func(st cs) int { return int(st.OutPairsKept) }},
		{"outpairs_dropped", "seam out-pairs dropped at materialization, far endpoint not live at the tile's rung of the store's ladder", func(st cs) int { return int(st.OutPairsDropped) }},
	} {
		reg.GaugeFunc("tileserver_cache_"+g.name, g.help, func() int64 { return int64(g.read(cache.Stats())) })
	}
	return s, nil
}

// Terrain returns the served dataset.
func (s *Server) Terrain() *dmesh.Terrain { return s.terrain }

// Store returns the server's DM store.
func (s *Server) Store() *dmesh.DMStore { return s.store }

// Cache returns the shared mesh-tile cache (per-tile stats included).
func (s *Server) Cache() *dmesh.DMTileCache { return s.cache }

// Registry returns the server's metrics registry, so an in-process
// cluster can read per-shard counters without scraping /metrics.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Grid returns the cache's quantization grid.
func (s *Server) Grid() *tilecache.Grid { return s.cache.Grid() }

// Handler mounts the serving endpoints, plus (when introspect is set)
// the observability surface: /metrics, /slowlog, /debug/pprof/. Every
// handler runs inside the in-flight tracker that Shutdown drains.
func (s *Server) Handler(introspect bool) http.Handler {
	mux := http.NewServeMux()
	for i := range routes {
		rt, m := &routes[i], &s.endpoints[i]
		mux.HandleFunc(rt.path, func(w http.ResponseWriter, r *http.Request) { s.serve(rt, m, w, r) })
	}
	mux.HandleFunc("/hottiles", s.handleHotTiles)
	mux.HandleFunc("/gridinfo", s.handleGridInfo)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	if introspect {
		mux.Handle("/metrics", obs.MetricsHandler(s.reg))
		mux.Handle("/slowlog", obs.SlowLogHandler(s.slow))
		obs.RegisterDebug(mux)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		mux.ServeHTTP(w, r)
	})
}

// Start listens on addr and serves in the background; the returned
// address carries the bound port (useful with ":0"). Stop with Shutdown.
func (s *Server) Start(addr string, introspect bool) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{
		Handler:           s.Handler(introspect),
		ReadHeaderTimeout: s.headerTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
	s.httpMu.Lock()
	s.httpSrv = srv
	s.httpMu.Unlock()
	go func() {
		if err := srv.Serve(l); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("serve: %v", err)
		}
	}()
	return l.Addr().String(), nil
}

// Shutdown stops accepting connections and blocks until every in-flight
// request has drained (tile fetches run inside their handlers, so a
// completed drain means no request is still touching the store) or ctx
// expires. Safe to call without a prior Start.
func (s *Server) Shutdown(ctx context.Context) error {
	s.httpMu.Lock()
	srv := s.httpSrv
	s.httpMu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}

// lookupCamera returns the named client's coherent session, creating it
// (and evicting the least recently used one past the cap) if needed.
func (s *Server) lookupCamera(name string) *camera {
	s.camMu.Lock()
	defer s.camMu.Unlock()
	if c, ok := s.cameras[name]; ok {
		c.lastUsed = time.Now()
		return c
	}
	if len(s.cameras) >= maxCameras {
		var oldest string
		for n, c := range s.cameras {
			if oldest == "" || c.lastUsed.Before(s.cameras[oldest].lastUsed) {
				oldest = n
			}
		}
		// The frames it served stay counted where they were recorded, in
		// the frame endpoint's series.
		delete(s.cameras, oldest)
		s.camEvictions.Inc()
	}
	cs := s.store.NewCoherentSession(s.model)
	c := &camera{cs: cs, tr: cs.EnableTrace(), lastUsed: time.Now()}
	s.cameras[name] = c
	return c
}

// HealthResponse is the /healthz and /readyz body.
type HealthResponse struct {
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

// writeJSON answers one of the fixed-size pages below. Probe misses are
// not request errors: a 503 from /readyz is the endpoint working.
func writeJSON(w http.ResponseWriter, status int, v any) {
	_ = obs.WriteJSON(w, status, v) // a prober or scraper that hung up needs no log line
}

// handleHealthz is the liveness probe: the process is up and the HTTP
// stack is answering. Always 200.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
}

// ReadyError reports why the server cannot serve queries yet, nil when
// it can: the store is opened over a non-empty dataset.
func (s *Server) ReadyError() error {
	if s.store == nil {
		return fmt.Errorf("store not opened")
	}
	if s.terrain.NumPoints() == 0 {
		return fmt.Errorf("terrain has no points")
	}
	return nil
}

// handleReadyz is the readiness probe: 200 once ReadyError is nil, 503
// (with the reason) until then.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if err := s.ReadyError(); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, HealthResponse{Status: "unready", Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ready"})
}

// hotTile is one entry of the /hottiles ranking.
type hotTile struct {
	Level int    `json:"level"`
	IX    int    `json:"ix"`
	IY    int    `json:"iy"`
	Band  int    `json:"band"`
	Hits  uint64 `json:"hits"`
	DA    uint64 `json:"disk_accesses"`
	Bytes int    `json:"bytes"`
	Nodes int    `json:"nodes"`
}

// handleHotTiles reports the cache's top-K hottest tiles in the
// deterministic replication order (hits descending, Key order ties);
// n=0, the default, lists every resident tile.
func (s *Server) handleHotTiles(w http.ResponseWriter, r *http.Request) {
	n, err := queryInt(r.URL.Query(), "n", 0)
	if err != nil {
		s.reqErrors.Inc()
		_ = obs.WriteError(w, http.StatusBadRequest, err) // as writeJSON: no log line for a client that hung up
		return
	}
	top := s.cache.TopTiles(n)
	out := make([]hotTile, 0, len(top))
	for _, ts := range top {
		out = append(out, hotTile{
			Level: ts.Key.Level, IX: ts.Key.IX, IY: ts.Key.IY, Band: ts.Key.Band,
			Hits: ts.Hits, DA: ts.DA, Bytes: ts.Bytes, Nodes: ts.Nodes,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// gridInfo is the /gridinfo body: everything needed to rebuild the
// shard's quantization grid (and so compute identical tile keys).
type gridInfo struct {
	DataRect [4]float64 `json:"data_rect"` // min_x, min_y, max_x, max_y
	MaxLevel int        `json:"max_level"`
	Ladder   []float64  `json:"lod_ladder"`
}

func (s *Server) handleGridInfo(w http.ResponseWriter, r *http.Request) {
	g := s.cache.Grid()
	dr := g.DataRect()
	writeJSON(w, http.StatusOK, gridInfo{
		DataRect: [4]float64{dr.MinX, dr.MinY, dr.MaxX, dr.MaxY},
		MaxLevel: g.MaxLevel(),
		Ladder:   g.Ladder(),
	})
}
