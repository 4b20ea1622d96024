// Package serve is the reusable HTTP tile-serving core extracted from
// examples/tileserver: the hardened single-process server (shared mesh-
// tile cache, per-request store sessions, coherent camera sessions, obs
// registry + slow log + introspection endpoints) behind an importable
// API, so a cluster shard is exactly the example server over a subset of
// tile keys.
//
// On top of the example's JSON endpoints (/tile, /frame, /stats,
// /cachestats) it serves the shard-facing surface the cluster router
// consumes:
//
//   - /patch?level=&ix=&iy=&band= — one canonical tile, materialized
//     through the shared cache and returned in the deterministic binary
//     wire encoding (dm.EncodeTilePatch, memoized per resident tile);
//     per-request disk accesses and cache coldness travel in X-DM-DA /
//     X-DM-Cold headers.
//   - /hottiles?n=K — the cache's top-K hottest tiles (hit-count order,
//     Key total-order tie-breaks), the router's replication input.
//   - /gridinfo — the tile grid parameters (data rect, max level, LOD
//     ladder), so any client can verify it quantizes like the shard.
//   - /stream?x0=&y0=&x1=&y1=&lod=&resume= — the progressive answer: a
//     chunked body carrying the internal/stream header plus one delta
//     batch per LOD-ladder rung, coarse to fine, each flushed as soon as
//     its rung's query completes. resume=K (the last fully received
//     batch index) re-sends the header and skips batches <= K, so an
//     interrupted client pays only for what it never got.
//
// Start runs the server on a listener; Shutdown drains: it stops
// accepting, then blocks until every in-flight request (tile fetches
// included) has completed or the context expires.
package serve

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dmesh"
	"dmesh/internal/geom"
	"dmesh/internal/obs"
	"dmesh/internal/stream"
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
	// SlowLogSize is the slow-log ring capacity (0 = 128).
	SlowLogSize int
	// ExpvarName, when non-empty, publishes the metrics registry under
	// this expvar key. Leave empty for in-process clusters: expvar is
	// process-global and the first registry would shadow the rest.
	ExpvarName string
}

// Server is the serving core: store, tile cache, coherent camera
// sessions, and the telemetry behind the introspection endpoints.
type Server struct {
	terrain *dmesh.Terrain
	store   *dmesh.DMStore
	model   *dmesh.CostModel
	cache   *dmesh.DMTileCache

	inflight atomic.Int64

	// Telemetry: the metrics registry behind /metrics and /debug/vars,
	// and the ring-buffered slow-request log behind /slowlog.
	reg  *obs.Registry
	slow *obs.SlowLog

	mTileReqs   *obs.Counter
	mFrameReqs  *obs.Counter
	mPatchReqs  *obs.Counter
	mStreamReqs *obs.Counter
	mErrors     *obs.Counter
	hTileDA     *obs.Histogram
	hTileNanos  *obs.Histogram
	hFrameDA    *obs.Histogram
	hFrameNs    *obs.Histogram
	hPatchDA    *obs.Histogram
	hPatchNs    *obs.Histogram
	hStreamDA   *obs.Histogram
	hStreamBy   *obs.Histogram
	hStreamNs   *obs.Histogram

	// Named coherent sessions, one per animating client. A coherent
	// session is stateful and not safe for concurrent use, so each entry
	// carries its own lock; the map itself has another. Evicted clients'
	// frame and disk-access totals roll up into the evicted* fields so
	// /stats never under-reports served work.
	camMu         sync.Mutex
	cameras       map[string]*camera
	camEvictions  uint64
	evictedFrames uint64
	evictedDA     uint64

	httpMu   sync.Mutex
	httpSrv  *http.Server
	listener net.Listener
}

// maxCameras caps the retained coherent sessions; the least recently
// used one is dropped when a new client would exceed it.
const maxCameras = 64

type camera struct {
	mu       sync.Mutex
	cs       *dmesh.DMCoherentSession
	tr       *obs.Trace // the session's trace; reset every frame
	lastUsed time.Time
	frames   uint64
	da       uint64
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
	slowSize := cfg.SlowLogSize
	if slowSize == 0 {
		slowSize = 128
	}
	s := &Server{
		terrain: cfg.Terrain, store: store, model: model, cache: cache,
		cameras: make(map[string]*camera),
		reg:     obs.NewRegistry(),
		slow:    obs.NewSlowLog(slowSize, cfg.SlowThreshold),
	}
	s.mTileReqs = s.reg.Counter("tileserver_tile_requests_total", "tile requests served")
	s.mFrameReqs = s.reg.Counter("tileserver_frame_requests_total", "coherent frames served")
	s.mPatchReqs = s.reg.Counter("tileserver_patch_requests_total", "wire tile patches served")
	s.mErrors = s.reg.Counter("tileserver_request_errors_total", "requests answered with an error status")
	s.hTileDA = s.reg.Histogram("tileserver_tile_disk_accesses", "disk accesses per tile request")
	s.hTileNanos = s.reg.Histogram("tileserver_tile_latency_nanos", "tile request latency in nanoseconds")
	s.hFrameDA = s.reg.Histogram("tileserver_frame_disk_accesses", "disk accesses per coherent frame")
	s.hFrameNs = s.reg.Histogram("tileserver_frame_latency_nanos", "frame request latency in nanoseconds")
	s.hPatchDA = s.reg.Histogram("tileserver_patch_disk_accesses", "disk accesses per wire patch request")
	s.hPatchNs = s.reg.Histogram("tileserver_patch_latency_nanos", "wire patch request latency in nanoseconds")
	s.mStreamReqs = s.reg.Counter("tileserver_stream_requests_total", "progressive streams served")
	s.hStreamDA = s.reg.Histogram("tileserver_stream_disk_accesses", "disk accesses per progressive stream")
	s.hStreamBy = s.reg.Histogram("tileserver_stream_bytes", "bytes written per progressive stream")
	s.hStreamNs = s.reg.Histogram("tileserver_stream_latency_nanos", "progressive stream latency in nanoseconds")
	s.reg.GaugeFunc("tileserver_cache_entries", "resident tile-cache patches", func() int64 {
		return int64(cache.Stats().Entries)
	})
	s.reg.GaugeFunc("tileserver_cache_bytes", "estimated resident tile-cache bytes", func() int64 {
		return int64(cache.Stats().Bytes)
	})
	s.reg.GaugeFunc("tileserver_cameras_active", "retained coherent sessions", func() int64 {
		s.camMu.Lock()
		defer s.camMu.Unlock()
		return int64(len(s.cameras))
	})
	s.reg.GaugeFunc("tileserver_inflight_requests", "requests currently being served", func() int64 {
		return s.inflight.Load()
	})
	if cfg.ExpvarName != "" {
		s.reg.PublishExpvar(cfg.ExpvarName)
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

// PatchTotals reports the wire-patch traffic: requests served and the
// store disk accesses they cost (cold materializations only).
func (s *Server) PatchTotals() (served, da uint64) {
	h := s.hPatchDA.Snapshot()
	return h.Count, h.Sum
}

// StreamTotals reports the progressive-stream traffic: streams served
// and the store disk accesses their rung queries cost.
func (s *Server) StreamTotals() (served, da uint64) {
	h := s.hStreamDA.Snapshot()
	return h.Count, h.Sum
}

// Handler mounts the serving endpoints, plus (when introspect is set)
// the observability surface: /metrics, /slowlog, /debug/vars,
// /debug/pprof/. Every handler runs inside the in-flight tracker that
// Shutdown drains.
func (s *Server) Handler(introspect bool) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/tile", s.handleTile)
	mux.HandleFunc("/frame", s.handleFrame)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/cachestats", s.handleCacheStats)
	mux.HandleFunc("/patch", s.handlePatch)
	mux.HandleFunc("/stream", s.handleStream)
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
	srv := &http.Server{Handler: s.Handler(introspect)}
	s.httpMu.Lock()
	s.httpSrv, s.listener = srv, l
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
		// Roll the evicted client's stats into the totals instead of
		// silently dropping them with the session.
		old := s.cameras[oldest]
		old.mu.Lock()
		frames, da := old.frames, old.da
		old.mu.Unlock()
		s.camEvictions++
		s.evictedFrames += frames
		s.evictedDA += da
		delete(s.cameras, oldest)
		log.Printf("evicted coherent session %q (%d frames, %d disk accesses)", oldest, frames, da)
	}
	cs := s.store.NewCoherentSession(s.model)
	c := &camera{cs: cs, tr: cs.EnableTrace(), lastUsed: time.Now()}
	s.cameras[name] = c
	return c
}

// traceRequested reports whether the client asked this response to
// carry its phase trace (trace=1). Tracing is strictly opt-in: default
// serving records nothing extra and ships nothing extra, so every
// untraced figure number stays byte-identical.
func traceRequested(r *http.Request) bool {
	return r.URL.Query().Get("trace") != ""
}

// attachTrace sets X-DM-Trace to the base64 TraceWire encoding of tr.
// Must run before the body goes out when h is a response's header map
// (trailers, declared up front, may set it after). A trace that fails
// to encode — open spans — drops the header, never the response.
func attachTrace(h http.Header, tr *obs.Trace) {
	if tr == nil {
		return
	}
	buf, err := tr.EncodeWire()
	if err != nil {
		log.Printf("trace encode: %v", err)
		return
	}
	h.Set("X-DM-Trace", base64.StdEncoding.EncodeToString(buf))
}

// HealthResponse is the /healthz and /readyz body.
type HealthResponse struct {
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

// writeHealth answers a probe with a fixed-size JSON body. Probe misses
// are not request errors: a 503 from /readyz is the endpoint working.
func (s *Server) writeHealth(w http.ResponseWriter, status int, resp HealthResponse) {
	body, err := json.Marshal(resp)
	if err != nil {
		body = []byte(`{"status":"error"}`)
	}
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// handleHealthz is the liveness probe: the process is up and the HTTP
// stack is answering. Always 200.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeHealth(w, http.StatusOK, HealthResponse{Status: "ok"})
}

// ReadyError reports why the server cannot serve queries yet, nil when
// it can: the store is opened and the tile cache is warm-capable (a
// grid with LOD rungs over a non-empty dataset).
func (s *Server) ReadyError() error {
	if s.store == nil {
		return fmt.Errorf("store not opened")
	}
	if s.cache == nil || len(s.cache.Ladder()) == 0 {
		return fmt.Errorf("tile cache has no LOD ladder")
	}
	if s.terrain.NumPoints() == 0 {
		return fmt.Errorf("terrain has no points")
	}
	return nil
}

// handleReadyz is the readiness probe: 200 once the store is opened and
// the tile cache can warm, 503 (with the reason) until then.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if err := s.ReadyError(); err != nil {
		s.writeHealth(w, http.StatusServiceUnavailable, HealthResponse{Status: "unready", Error: err.Error()})
		return
	}
	s.writeHealth(w, http.StatusOK, HealthResponse{Status: "ready"})
}

// meshJSON is a query answer's JSON shape, embedded in the /tile and
// /frame responses.
type meshJSON struct {
	Vertices  map[string][3]float64 `json:"vertices"`
	Triangles [][3]int64            `json:"triangles"`
}

func meshJSONOf(res *dmesh.Result) meshJSON {
	m := meshJSON{
		Vertices:  make(map[string][3]float64, len(res.Vertices)),
		Triangles: make([][3]int64, 0, len(res.Triangles)),
	}
	for id, p := range res.Vertices {
		m.Vertices[strconv.FormatInt(id, 10)] = [3]float64{p.X, p.Y, p.Z}
	}
	for _, t := range res.Triangles {
		m.Triangles = append(m.Triangles, [3]int64{t.A, t.B, t.C})
	}
	return m
}

type tileResponse struct {
	LOD float64 `json:"lod"`
	meshJSON
	DiskAccesses uint64 `json:"disk_accesses"`
}

func queryFloat(r *http.Request, name string, def float64) (float64, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	return strconv.ParseFloat(v, 64)
}

func queryInt(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	return strconv.Atoi(v)
}

// lodParam names one LOD-percentile query parameter and its default.
type lodParam struct {
	name string
	def  float64
}

// parseROILOD reads the x0/y0/x1/y1 rectangle (default: the unit square)
// and each named LOD percentile, which must lie in [0,1].
func parseROILOD(r *http.Request, lods ...lodParam) (geom.Rect, []float64, error) {
	var c [4]float64
	for i, name := range [4]string{"x0", "y0", "x1", "y1"} {
		v, err := queryFloat(r, name, float64(i/2))
		if err != nil {
			return geom.Rect{}, nil, err
		}
		c[i] = v
	}
	pcts := make([]float64, len(lods))
	for i, l := range lods {
		v, err := queryFloat(r, l.name, l.def)
		if err != nil {
			return geom.Rect{}, nil, err
		}
		if v < 0 || v > 1 {
			return geom.Rect{}, nil, fmt.Errorf("%s must be a percentile in [0,1]", l.name)
		}
		pcts[i] = v
	}
	return dmesh.NewRect(c[0], c[1], c[2], c[3]), pcts, nil
}

// roiLabel renders a rectangle for slow-log entries.
func roiLabel(r geom.Rect) string {
	return fmt.Sprintf("roi=[%g,%g,%g,%g]", r.MinX, r.MinY, r.MaxX, r.MaxY)
}

// jsonError answers a failed request with a JSON body, so API clients
// parsing every response get structured errors instead of plain text.
// I/O faults under a query surface here as a 500 with the error chain
// (e.g. an injected fault or a checksum mismatch) — the server itself
// keeps serving. The body is marshaled before the header goes out, so
// the status line and Content-Length always describe the bytes actually
// sent.
func (s *Server) jsonError(w http.ResponseWriter, status int, err error) {
	s.mErrors.Inc()
	body, encErr := json.Marshal(map[string]string{"error": err.Error()})
	if encErr != nil {
		// A map[string]string cannot fail to marshal; keep the client
		// parseable anyway.
		body = []byte(`{"error":"error encoding failed"}`)
	}
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		log.Printf("error write: %v", err)
	}
}

// writeJSON buffers the whole encoding, sets Content-Length, then
// writes. Streaming json.NewEncoder(w).Encode straight into the
// ResponseWriter cannot do that: once the header is out, an encode or
// write failure leaves the client a truncated 200 indistinguishable
// from a short document, with nothing but a server-side log line to
// show for it. With the length declared up front a cut body surfaces at
// the client as an unexpected EOF.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		s.jsonError(w, http.StatusInternalServerError, err)
		return
	}
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	if _, err := w.Write(body); err != nil {
		log.Printf("response write: %v", err)
	}
}

func (s *Server) handleTile(w http.ResponseWriter, r *http.Request) {
	roi, pcts, err := parseROILOD(r, lodParam{"lod", 0.9})
	if err != nil {
		s.jsonError(w, http.StatusBadRequest, err)
		return
	}
	lod := s.terrain.LODPercentile(pcts[0])

	var res *dmesh.Result
	var da uint64
	var tr *obs.Trace
	start := time.Now()
	nocache := r.URL.Query().Get("nocache") != ""
	if nocache {
		// Bypass the tile cache: one session per request, so the
		// session's counters see only this request's page reads — and the
		// trace samples them directly.
		sess := s.store.NewSession()
		tr = sess.NewTrace()
		res, err = sess.ViewpointIndependent(roi, lod)
		da = sess.DiskAccesses()
	} else {
		// The cache snaps the LOD onto its ladder, materializes any cold
		// tiles (once, however many requests race) and stitches; da is
		// only the store I/O this request's cold tiles cost, and the
		// charge-based trace attributes exactly that.
		tr = dmesh.NewQueryTrace(nil)
		var qs dmesh.TileQueryStats
		res, qs, err = s.cache.QueryTraced(roi, lod, tr)
		lod, da = qs.SnappedE, qs.DA
	}
	dur := time.Since(start)
	if err != nil {
		s.jsonError(w, http.StatusInternalServerError, err)
		return
	}
	s.mTileReqs.Inc()
	s.hTileDA.Observe(da)
	s.hTileNanos.Observe(uint64(dur))
	s.slow.Observe(fmt.Sprintf("tile %s lod=%g nocache=%t", roiLabel(roi), pcts[0], nocache), dur, da, tr)
	if traceRequested(r) {
		attachTrace(w.Header(), tr)
	}
	s.writeJSON(w, tileResponse{LOD: lod, meshJSON: meshJSONOf(res), DiskAccesses: da})
}

// handlePatch answers one canonical tile by key in the binary wire
// encoding — the shard endpoint the cluster router fans out to. The
// response is deterministic for a key (the patch encoding sorts nodes),
// so any replica returns byte-identical bodies.
func (s *Server) handlePatch(w http.ResponseWriter, r *http.Request) {
	level, err1 := queryInt(r, "level", -1)
	ix, err2 := queryInt(r, "ix", -1)
	iy, err3 := queryInt(r, "iy", -1)
	band, err4 := queryInt(r, "band", -1)
	for _, err := range []error{err1, err2, err3, err4} {
		if err != nil {
			s.jsonError(w, http.StatusBadRequest, err)
			return
		}
	}
	k := tilecache.Key{Level: level, IX: ix, IY: iy, Band: band}
	var tr *obs.Trace
	if traceRequested(r) {
		// Charge-based: the cache counts DA through per-flight sessions,
		// so the trace total equals the X-DM-DA header exactly — the
		// per-hop half of the cluster's cross-hop invariant.
		tr = dmesh.NewQueryTrace(nil)
	}
	start := time.Now()
	// The whole body is in hand before the header goes out: with
	// Content-Length declared, a write that dies mid-body surfaces at the
	// router as a short read (a failed attempt eligible for failover)
	// instead of a clean-looking truncated 200. A warm tile's body is the
	// cache's memoized encoding, shared read-only with every other reader.
	body, st, err := s.cache.PatchWire(k, tr)
	if err != nil {
		if errors.Is(err, tilecache.ErrInvalidKey) {
			s.jsonError(w, http.StatusBadRequest, err)
		} else {
			s.jsonError(w, http.StatusInternalServerError, err)
		}
		return
	}
	dur := time.Since(start) // lookup, materialization and encoding: all but the write
	s.mPatchReqs.Inc()
	s.hPatchDA.Observe(st.DA)
	s.hPatchNs.Observe(uint64(dur))
	s.slow.Observe(fmt.Sprintf("patch key=%s cold=%t", k, st.Cold), dur, st.DA, tr)

	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Header().Set("X-DM-DA", strconv.FormatUint(st.DA, 10))
	w.Header().Set("X-DM-Cold", strconv.FormatBool(st.Cold))
	if tr != nil {
		attachTrace(w.Header(), tr)
	}
	if _, err := w.Write(body); err != nil {
		log.Printf("patch write: %v", err)
	}
}

// handleStream answers one ROI progressively: the stream header, then
// one delta batch per LOD-ladder rung from the coarsest rung down to
// the one the requested LOD snaps to, each flushed as soon as its
// rung's query completes — so the client renders a coarse mesh after
// the first frame and refines to the exact answer. Every rung's answer
// comes through the shared tile cache, so the per-rung queries are the
// same canonical tile fetches /tile and /patch pay for.
//
// resume is the last batch index the client fully received (-1, the
// default, streams everything): the server still replays the earlier
// rungs' queries to rebuild the delta state, but transmits only the
// batches after resume.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	roi, pcts, err := parseROILOD(r, lodParam{"lod", 0.9})
	if err != nil {
		s.jsonError(w, http.StatusBadRequest, err)
		return
	}
	resume, err := queryInt(r, "resume", -1)
	if err != nil {
		s.jsonError(w, http.StatusBadRequest, err)
		return
	}
	band, _ := s.cache.Grid().SnapE(s.terrain.LODPercentile(pcts[0]))
	enc, err := stream.Plan(roi, s.cache.Grid().Ladder(), band, resume)
	if err != nil {
		s.jsonError(w, http.StatusBadRequest, err)
		return
	}

	var tr *obs.Trace
	if traceRequested(r) {
		// The trace is complete only after the last batch, so it travels
		// as an HTTP trailer: declared here, set after the body. The DA
		// total rides along for clients that want the invariant without
		// decoding the trace.
		tr = dmesh.NewQueryTrace(nil)
		w.Header().Set("Trailer", "X-DM-Trace, X-DM-DA")
	}

	start := time.Now()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-DM-Batches", strconv.Itoa(enc.NumBatches()))
	w.Header().Set("X-DM-Target-E", strconv.FormatFloat(enc.TargetE(), 'g', -1, 64))
	var da uint64
	_, sent, err := enc.Run(flushWriter{w}, tr, func(level float64) (*dmesh.Result, error) {
		res, qs, err := s.cache.QueryTraced(roi, level, tr)
		da += qs.DA
		return res, err
	})
	if err != nil {
		// The header (and possibly earlier frames) are out, so the status
		// line cannot change; cutting the connection leaves the client a
		// length-prefixed truncation it can resume from.
		s.mErrors.Inc()
		log.Printf("stream: %v", err)
		return
	}
	dur := time.Since(start)
	s.mStreamReqs.Inc()
	s.hStreamDA.Observe(da)
	s.hStreamBy.Observe(uint64(sent.Bytes))
	s.hStreamNs.Observe(uint64(dur))
	s.slow.Observe(fmt.Sprintf("stream %s lod=%g resume=%d", roiLabel(roi), pcts[0], resume), dur, da, tr)
	if tr != nil {
		// Trailer values: set on the header map after the body, delivered
		// in the chunked trailer block (declared before the first write).
		attachTrace(w.Header(), tr)
		w.Header().Set("X-DM-DA", strconv.FormatUint(da, 10))
	}
}

// flushWriter pushes every write of a streamed body out to the client at
// once: the header, then each batch as soon as its rung is encoded.
type flushWriter struct{ w http.ResponseWriter }

func (fw flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	if f, ok := fw.w.(http.Flusher); ok && err == nil {
		f.Flush()
	}
	return n, err
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

func hotTileOf(ts tilecache.TileStat) hotTile {
	return hotTile{
		Level: ts.Key.Level, IX: ts.Key.IX, IY: ts.Key.IY, Band: ts.Key.Band,
		Hits: ts.Hits, DA: ts.DA, Bytes: ts.Bytes, Nodes: ts.Nodes,
	}
}

// handleHotTiles reports the cache's top-K hottest tiles in the
// deterministic replication order (hits descending, Key order ties).
func (s *Server) handleHotTiles(w http.ResponseWriter, r *http.Request) {
	n, err := queryInt(r, "n", 0)
	if err != nil {
		s.jsonError(w, http.StatusBadRequest, err)
		return
	}
	top := s.cache.TopTiles(n)
	out := make([]hotTile, 0, len(top))
	for _, ts := range top {
		out = append(out, hotTileOf(ts))
	}
	s.writeJSON(w, out)
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
	s.writeJSON(w, gridInfo{
		DataRect: [4]float64{dr.MinX, dr.MinY, dr.MaxX, dr.MaxY},
		MaxLevel: g.MaxLevel(),
		Ladder:   g.Ladder(),
	})
}

// Grid returns the cache's quantization grid.
func (s *Server) Grid() *tilecache.Grid { return s.cache.Grid() }

// DataSpace returns the store's data rect (for grid reconstruction).
func (s *Server) DataSpace() geom.Rect { return s.cache.Grid().DataRect() }

type frameResponse struct {
	Session  string `json:"session"`
	Full     bool   `json:"full"`
	Retained int    `json:"retained"`
	Fetched  int    `json:"fetched"`
	Evicted  int    `json:"evicted"`
	meshJSON
	DiskAccesses uint64 `json:"disk_accesses"`
}

// handleFrame answers one frame of a named client's camera animation
// through its retained coherent session. near and far are LOD
// percentiles at the low- and high-y edges of the view (equal values
// give a uniform frame); overlapping consecutive frames are answered
// incrementally.
func (s *Server) handleFrame(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("session")
	if name == "" {
		s.jsonError(w, http.StatusBadRequest, fmt.Errorf("session parameter required"))
		return
	}
	roi, pcts, err := parseROILOD(r, lodParam{"near", 0.75}, lodParam{"far", 0.99})
	if err != nil {
		s.jsonError(w, http.StatusBadRequest, err)
		return
	}
	plane := dmesh.QueryPlane{
		R:    roi,
		EMin: s.terrain.LODPercentile(pcts[0]),
		EMax: s.terrain.LODPercentile(pcts[1]),
		Axis: 1,
	}

	cam := s.lookupCamera(name)
	cam.mu.Lock()
	start := time.Now()
	res, st, err := cam.cs.Frame(plane)
	dur := time.Since(start)
	cam.da += st.DA // a failed frame still paid for the pages it read
	var wire string
	if err == nil {
		cam.frames++
		// Observe under the camera lock: the trace is reset by the next
		// frame, and Observe copies the phase stats out. The wire encoding
		// is captured under the same lock for the same reason.
		s.slow.Observe(fmt.Sprintf("frame session=%s %s", name, roiLabel(roi)), dur, st.DA, cam.tr)
		if traceRequested(r) {
			if buf, encErr := cam.tr.EncodeWire(); encErr == nil {
				wire = base64.StdEncoding.EncodeToString(buf)
			}
		}
	}
	cam.mu.Unlock()
	s.hFrameDA.Observe(st.DA)
	if err != nil {
		s.jsonError(w, http.StatusInternalServerError, err)
		return
	}
	if wire != "" {
		w.Header().Set("X-DM-Trace", wire)
	}
	s.mFrameReqs.Inc()
	s.hFrameNs.Observe(uint64(dur))

	s.writeJSON(w, frameResponse{
		Session:      name,
		Full:         st.Full,
		Retained:     st.Retained,
		Fetched:      st.Fetched,
		Evicted:      st.Evicted,
		meshJSON:     meshJSONOf(res),
		DiskAccesses: st.DA,
	})
}

// CameraStats is one retained coherent session's accounting in /stats.
type CameraStats struct {
	Session      string `json:"session"`
	Frames       uint64 `json:"frames"`
	DiskAccesses uint64 `json:"disk_accesses"`
	IdleSeconds  int64  `json:"idle_seconds"`
}

// StatsResponse is the /stats body.
type StatsResponse struct {
	Points         int                `json:"points"`
	Nodes          int                `json:"nodes"`
	MaxLOD         float64            `json:"max_lod"`
	LODPercentiles map[string]float64 `json:"lod_percentiles"`

	TilesServed uint64  `json:"tiles_served"`
	TileDA      uint64  `json:"tile_disk_accesses"`
	DAPerTile   float64 `json:"da_per_tile"`

	PatchesServed uint64 `json:"patches_served"`
	PatchDA       uint64 `json:"patch_disk_accesses"`

	// Coherent-session LRU: per-client occupancy plus eviction counts.
	// Totals include clients already evicted from the LRU, so nothing is
	// silently dropped.
	Cameras          []CameraStats `json:"cameras"`
	CameraOccupancy  int           `json:"camera_occupancy"`
	CameraCapacity   int           `json:"camera_capacity"`
	CameraEvictions  uint64        `json:"camera_evictions"`
	TotalFrames      uint64        `json:"total_frames"`
	TotalFrameDA     uint64        `json:"total_frame_disk_accesses"`
	EvictedFrames    uint64        `json:"evicted_frames"`
	EvictedFrameDA   uint64        `json:"evicted_frame_disk_accesses"`
	StoreDiskAccsses uint64        `json:"store_disk_accesses"`
}

// StatsSnapshot assembles the /stats response at the given time.
// Deterministic for a fixed server state and now: the only map in the
// response is encoded by encoding/json (sorted keys) and the camera list
// is sorted by session name.
func (s *Server) StatsSnapshot(now time.Time) StatsResponse {
	tiles := s.hTileDA.Snapshot()
	patches, patchDA := s.PatchTotals()
	resp := StatsResponse{
		Points:         s.terrain.NumPoints(),
		Nodes:          s.terrain.Dataset.Tree.Len(),
		MaxLOD:         s.terrain.MaxLOD(),
		LODPercentiles: make(map[string]float64),
		TilesServed:    tiles.Count,
		TileDA:         tiles.Sum,
		PatchesServed:  patches,
		PatchDA:        patchDA,
		CameraCapacity: maxCameras,
	}
	for _, p := range []float64{0.5, 0.9, 0.99} {
		resp.LODPercentiles[fmt.Sprintf("p%.0f", p*100)] = s.terrain.LODPercentile(p)
	}
	if resp.TilesServed > 0 {
		resp.DAPerTile = float64(resp.TileDA) / float64(resp.TilesServed)
	}
	s.camMu.Lock()
	resp.CameraOccupancy = len(s.cameras)
	resp.CameraEvictions = s.camEvictions
	resp.EvictedFrames = s.evictedFrames
	resp.EvictedFrameDA = s.evictedDA
	resp.TotalFrames = s.evictedFrames
	resp.TotalFrameDA = s.evictedDA
	for name, c := range s.cameras {
		c.mu.Lock()
		resp.Cameras = append(resp.Cameras, CameraStats{
			Session:      name,
			Frames:       c.frames,
			DiskAccesses: c.da,
			IdleSeconds:  int64(now.Sub(c.lastUsed).Seconds()),
		})
		resp.TotalFrames += c.frames
		resp.TotalFrameDA += c.da
		c.mu.Unlock()
	}
	s.camMu.Unlock()
	sort.Slice(resp.Cameras, func(i, j int) bool { return resp.Cameras[i].Session < resp.Cameras[j].Session })
	resp.StoreDiskAccsses = s.store.DiskAccesses()
	return resp
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, s.StatsSnapshot(time.Now()))
}

// CacheStatsResponse is the /cachestats body: global cache counters plus
// the per-tile hit/cost accounting, hottest tiles first (ties keep the
// underlying Key order, so the encoding is deterministic).
type CacheStatsResponse struct {
	Stats  dmesh.TileCacheStats `json:"stats"`
	Ladder []float64            `json:"lod_ladder"`
	Tiles  []hotTile            `json:"tiles"`
}

// CacheStatsSnapshot assembles the /cachestats response. TopTiles ranks
// by hits with Key total-order tie-breaks, so the encoding is
// deterministic.
func (s *Server) CacheStatsSnapshot() CacheStatsResponse {
	resp := CacheStatsResponse{
		Stats:  s.cache.Stats(),
		Ladder: s.cache.Ladder(),
	}
	for _, ts := range s.cache.TopTiles(0) {
		resp.Tiles = append(resp.Tiles, hotTileOf(ts))
	}
	return resp
}

// handleCacheStats reports the shared tile cache: global counters plus
// the per-tile hit/cost accounting, hottest tiles first.
func (s *Server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, s.CacheStatsSnapshot())
}
