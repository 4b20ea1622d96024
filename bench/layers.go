package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dmesh"
	"dmesh/internal/cluster"
	"dmesh/internal/costmodel"
	"dmesh/internal/dm"
	"dmesh/internal/geom"
	"dmesh/internal/serve"
	"dmesh/internal/storage/pager"
	"dmesh/internal/stream"
	"dmesh/internal/tilecache"
)

// rig is every layer, reachable from outside: the workload's own system
// plus whatever pieces it did not need, started fresh for the probes.
type rig struct {
	terrain *dmesh.Terrain
	lc      *cluster.LocalCluster
	shardH  []http.Handler // in-process handlers of the cluster's shards
	node    *serve.Server  // the single node: the workload's, or shard 0
	nodeURL string
	nodeH   http.Handler
	cold    *dmesh.DMStore
	model   *dmesh.CostModel
	httpc   *http.Client
	// fresh is a second tile cache over the node's store, emptied before
	// every use: a cold key on demand.
	fresh *dmesh.DMTileCache
	// cs is the probe's own coherent session on the node's store.
	cs *dmesh.DMCoherentSession
}

func newRig(sys *system, aux *system) (*rig, error) {
	r := &rig{terrain: sys.terrain, httpc: &http.Client{Timeout: 30 * time.Second, Transport: newTransport()}}
	r.lc = sys.lc
	if r.lc == nil {
		if err := aux.startCluster(); err != nil {
			return nil, err
		}
		r.lc = aux.lc
	}
	for _, sv := range r.lc.Servers {
		r.shardH = append(r.shardH, sv.Handler(false))
	}
	if sys.node != nil {
		r.node, r.nodeURL = sys.node, sys.nodeTS.URL
	} else {
		r.node, r.nodeURL = r.lc.Servers[0], r.lc.HTTP[0].URL
	}
	r.nodeH = r.node.Handler(false)
	r.cold, r.model = sys.cold, sys.coldModel
	if r.cold == nil {
		if err := aux.startCold(); err != nil {
			return nil, err
		}
		r.cold, r.model = aux.cold, aux.coldModel
	}
	var err error
	if r.fresh, err = r.terrain.NewTileCache(r.node.Store(), 0); err != nil {
		return nil, err
	}
	nodeModel, err := dmesh.NewCostModel(r.node.Store())
	if err != nil {
		return nil, err
	}
	r.cs = r.node.Store().NewCoherentSession(nodeModel)
	return r, nil
}

// serveLocal runs one request through a handler in process, into a
// recorder: the serve layer with no network under it.
func serveLocal(h http.Handler, target string) (*httptest.ResponseRecorder, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("in-process GET %s: status %d: %s", target, rec.Code, rec.Body.Bytes())
	}
	return rec, nil
}

func (r *rig) fetch(url string) ([]byte, error) {
	a := get(r.httpc, url, false)
	return a.body, a.err
}

// layerAcc gathers what the pipelines count, next to the spans.
type layerAcc struct {
	glue, tileOverhead, netOverhead []float64
	respBytes                       []float64
	wireBytes, wireNodes            float64
	dataDA, floorPages              float64
	candidates, vertices            float64
	frames, fullFrames              float64
	retained, fetched, frameDA      float64
	toFirst, toExact, streamVerts   float64
	batches, streams                float64
	queries, tiles                  float64 // real Router.Query fan-out accounting
	attempts, redirected            float64
}

// probeLayers records a span around each public-function call of the
// shadow pipelines and reduces the spans and counts to the per-layer
// ledger. The workload's own pipeline shadows every traced op; the other
// layers' pipelines run on the first probes ops' inputs, so that every
// layer has a figure on every workload.
func probeLayers(sys *system, w *workloadDef, ops []op, probes int, tr *tracer) (map[string]float64, error) {
	aux := &system{size: sys.size, tmp: filepath.Join(sys.tmp, "aux"), terrain: sys.terrain}
	defer aux.close()
	r, err := newRig(sys, aux)
	if err != nil {
		return nil, err
	}
	defer r.httpc.CloseIdleConnections()
	acc := &layerAcc{}
	for i, o := range ops {
		for _, p := range []struct {
			name string
			run  func(*rig, *tracer, *layerAcc, int, op, bool) error
		}{
			{"patch", (*rig).patchPipeline},
			{"tile", (*rig).tilePipeline},
			{"frame", (*rig).framePipeline},
			{"stream", (*rig).streamPipeline},
			{"direct", (*rig).directPipeline},
		} {
			if p.name != w.pipeline && i >= probes {
				continue
			}
			if err := p.run(r, tr, acc, i, o, p.name == w.endpoint); err != nil {
				return nil, fmt.Errorf("%s pipeline, op %d: %w", p.name, i, err)
			}
		}
	}
	hitNs, missUs, evPerMiss, err := pagerProbe(filepath.Join(sys.tmp, "pagerprobe"))
	if err != nil {
		return nil, err
	}

	self := selfTimes(tr.spans)
	var rootSelf, rootWall float64
	for i := range tr.spans {
		if tr.spans[i].Parent < 0 {
			rootSelf += self[i]
			rootWall += float64(tr.spans[i].dur())
		}
	}
	med := func(name string) float64 { return median(tr.durations(name)) }
	perCall := func(name string, scale float64) float64 {
		// Spans that time a batch of identical calls carry the batch size.
		var out []float64
		for i := range tr.spans {
			if s := &tr.spans[i]; s.Name == name {
				out = append(out, float64(s.dur())*scale/math.Max(1, s.Counts["calls"]))
			}
		}
		return median(out)
	}
	return map[string]float64{
		"cluster.fanout_wall_ms": med("cluster.fanout"),
		"cluster.glue_ms":        median(acc.glue),
		"cluster.ring_order_ns":  perCall("ring.order", 1),

		"cluster.tiles_per_op":      ratio(acc.tiles, acc.queries),
		"cluster.attempts_per_tile": ratio(acc.attempts, acc.tiles),
		"cluster.redirects":         acc.redirected,

		"serve.patch_handler_ms":  med("serve.patch_handler"),
		"serve.tile_handler_ms":   med("serve.tile_handler"),
		"serve.frame_handler_ms":  med("serve.frame_handler"),
		"serve.stream_handler_ms": med("serve.stream_handler"),
		"serve.tile_overhead_ms":  median(acc.tileOverhead),
		"serve.resp_bytes_per_op": mean(acc.respBytes),

		"net.http_overhead_ms": median(acc.netOverhead),

		"tilecache.query_hit_ms":   med("cache.query_hit"),
		"tilecache.patch_hit_us":   med("cache.patch_hit") * 1000,
		"tilecache.materialize_ms": med("cache.patch_cold"),

		"dm.vi_cold_ms":                med("dm.vi_cold"),
		"dm.vi_warm_ms":                med("dm.vi_warm"),
		"dm.vd_cold_ms":                med("dm.vd_cold"),
		"dm.fetch_by_id_us":            perCall("dm.fetch_by_id", 1e-3),
		"dm.blocking_ratio":            ratio(acc.dataDA, acc.floorPages),
		"dm.candidates_per_vertex":     ratio(acc.candidates, acc.vertices),
		"dm.materialize_tile_ms":       med("dm.materialize_tile"),
		"dm.stitch_ms":                 med("dm.stitch"),
		"dm.tilewire_encode_ms":        med("dm.tilewire_encode"),
		"dm.tilewire_decode_ms":        med("dm.tilewire_decode"),
		"dm.tilewire_bytes_per_vertex": ratio(acc.wireBytes, acc.wireNodes),
		"dm.coherent_frame_ms":         med("dm.coherent_frame"),
		"dm.coherent_full_frac":        ratio(acc.fullFrames, acc.frames),
		"dm.coherent_retained_frac":    ratio(acc.retained, acc.retained+acc.fetched),
		"dm.coherent_da_per_frame":     ratio(acc.frameDA, acc.frames),

		"rtree.search_ms": med("rtree.search"),

		"pager.get_hit_ns":         hitNs,
		"pager.get_miss_us":        missUs,
		"pager.evictions_per_miss": evPerMiss,

		"stream.encode_ms_per_batch": med("stream.encode"),
		"stream.decode_ms_per_batch": med("stream.decode"),
		"stream.bytes_to_first":      ratio(acc.toFirst, acc.streams),
		"stream.bytes_to_exact":      ratio(acc.toExact, acc.streams),
		"stream.first_frac":          ratio(acc.toFirst, acc.toExact),
		"stream.bits_per_vertex":     ratio(acc.toExact*8, acc.streamVerts),
		"stream.batches_per_op":      ratio(acc.batches, acc.streams),

		"costmodel.plan_us":     perCall("costmodel.plan", 1e-3),
		"costmodel.estimate_ns": perCall("costmodel.estimate", 1),

		"obs.unattributed_frac": ratio(rootSelf, rootWall),
	}, nil
}

// patchPipeline shadows a cluster fan-out query: Grid.Cover, Ring.Order
// per key, the tile GETs as the router issues them (concurrently, to
// each key's owner), then per key the same /patch in process, Cache.Patch,
// EncodeTilePatch, DecodeTilePatch, and the stitch — beside the real
// Router.Query on the same input.
func (r *rig) patchPipeline(tr *tracer, acc *layerAcc, i int, o op, own bool) error {
	rt := r.lc.Router
	g := rt.Grid()
	e := r.terrain.LODPercentile(o.uniformPct())
	root := tr.begin(-1, i, "client", "patch.op")
	defer tr.end(root)

	var err error
	var qs cluster.QueryStats
	query := tr.timed(root, i, "cluster", "router.query", func() { _, qs, err = rt.Query(o.ROI, e) })
	if err != nil {
		return err
	}
	acc.queries++
	acc.tiles += float64(qs.Tiles)
	acc.attempts += float64(qs.Attempts)
	acc.redirected += float64(qs.Redirected)

	var keys []tilecache.Key
	var snapped float64
	cover := tr.timed(root, i, "tilecache", "grid.cover", func() {
		var band int
		band, snapped = g.SnapE(e)
		keys = g.Cover(o.ROI, g.LevelFor(o.ROI), band)
	})
	owners := make([]int, len(keys))
	const orderCalls = 64
	order := tr.timed(root, i, "cluster", "ring.order", func() {
		for n := 0; n < orderCalls; n++ {
			for k, key := range keys {
				owners[k] = rt.Ring().Order(key.String())[0]
			}
		}
	})
	tr.count(order, "calls", float64(orderCalls*len(keys)))

	target := func(k tilecache.Key) string {
		return fmt.Sprintf("/patch?level=%d&ix=%d&iy=%d&band=%d", k.Level, k.IX, k.IY, k.Band)
	}
	bodies := make([][]byte, len(keys))
	errs := make([]error, len(keys))
	gets := make([]int, len(keys))
	fan := tr.begin(root, i, "cluster", "cluster.fanout")
	var wg sync.WaitGroup
	for k := range keys {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			gets[k] = tr.timed(fan, i, "net", "GET /patch", func() {
				bodies[k], errs[k] = r.fetch(r.lc.HTTP[owners[k]].URL + target(keys[k]))
			})
		}(k)
	}
	wg.Wait()
	tr.end(fan)
	tr.count(fan, "tiles", float64(len(keys)))
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	var handlerMs, getMs, decodeMs, respBytes float64
	tiles := make([]*dm.TilePatch, len(keys))
	for k, key := range keys {
		var rec *httptest.ResponseRecorder
		h := tr.timed(root, i, "serve", "serve.patch_handler", func() { rec, err = serveLocal(r.shardH[owners[k]], target(key)) })
		if err != nil {
			return err
		}
		handlerMs += tr.durMs(h)
		getMs += tr.durMs(gets[k])
		respBytes += float64(rec.Body.Len())

		var tp *dm.TilePatch
		tr.timed(root, i, "tilecache", "cache.patch_hit", func() { tp, _, err = r.lc.Servers[owners[k]].Cache().Patch(key) })
		if err != nil {
			return err
		}
		var wire []byte
		enc := tr.timed(root, i, "dm", "dm.tilewire_encode", func() { wire = dm.EncodeTilePatch(tp) })
		tr.count(enc, "bytes", float64(len(wire)))
		acc.wireBytes += float64(len(wire))
		acc.wireNodes += float64(len(tp.Nodes))
		dec := tr.timed(root, i, "dm", "dm.tilewire_decode", func() { tiles[k], err = dm.DecodeTilePatch(wire) })
		if err != nil {
			return err
		}
		decodeMs += tr.durMs(dec)
	}
	stitch := tr.timed(root, i, "dm", "dm.stitch", func() { _, err = dm.StitchTiles(o.ROI, snapped, tiles) })
	if err != nil {
		return err
	}
	acc.glue = append(acc.glue, tr.durMs(query)-(tr.durMs(cover)+tr.durMs(fan)+decodeMs+tr.durMs(stitch)))
	if own {
		acc.respBytes = append(acc.respBytes, respBytes)
		acc.netOverhead = append(acc.netOverhead, (getMs-handlerMs)/float64(len(keys)))
	}
	return nil
}

// tilePipeline shadows a single-node /tile: the real GET, the same
// request in process, Cache.Query under it (all tiles resident), and for
// the cover's first key a cold Cache.Patch and the Store.MaterializeTile
// under that.
func (r *rig) tilePipeline(tr *tracer, acc *layerAcc, i int, o op, own bool) error {
	pct := o.uniformPct()
	e := r.terrain.LODPercentile(pct)
	cache := r.node.Cache()
	// Make the tiles resident first, off the spans: the GET, the handler
	// and Cache.Query are then all measured on the hit path.
	if _, _, err := cache.Query(o.ROI, e); err != nil {
		return err
	}
	root := tr.begin(-1, i, "client", "tile.op")
	defer tr.end(root)
	target := fmt.Sprintf("/tile?%s&lod=%g", rectQuery(o.ROI), pct)
	var err error
	var body []byte
	get := tr.timed(root, i, "net", "GET /tile", func() { body, err = r.fetch(r.nodeURL + target) })
	if err != nil {
		return err
	}
	h := tr.timed(root, i, "serve", "serve.tile_handler", func() { _, err = serveLocal(r.nodeH, target) })
	if err != nil {
		return err
	}
	q := tr.timed(root, i, "tilecache", "cache.query_hit", func() { _, _, err = cache.Query(o.ROI, e) })
	if err != nil {
		return err
	}
	acc.tileOverhead = append(acc.tileOverhead, tr.durMs(h)-tr.durMs(q))

	g := cache.Grid()
	band, snapped := g.SnapE(e)
	key := g.Cover(o.ROI, g.LevelFor(o.ROI), band)[0]
	r.fresh.InvalidateAll()
	tr.timed(root, i, "tilecache", "cache.patch_cold", func() { _, _, err = r.fresh.Patch(key) })
	if err != nil {
		return err
	}
	sess := r.node.Store().NewSession()
	tr.timed(root, i, "dm", "dm.materialize_tile", func() { _, err = sess.MaterializeTile(g.RectFor(key), snapped) })
	if err != nil {
		return err
	}
	if own {
		acc.respBytes = append(acc.respBytes, float64(len(body)))
		acc.netOverhead = append(acc.netOverhead, tr.durMs(get)-tr.durMs(h))
	}
	return nil
}

// framePipeline shadows a coherent /frame: the real GET and the same
// request in process (each on a session of its own, fed the same frame
// sequence), and CoherentSession.Frame directly.
func (r *rig) framePipeline(tr *tracer, acc *layerAcc, i int, o op, own bool) error {
	near, far := o.Near, o.Far
	if !o.viewDependent() || o.Angle > 0 {
		near, far = o.uniformPct(), o.uniformPct()
	}
	plane := geom.QueryPlane{R: o.ROI, EMin: r.terrain.LODPercentile(near), EMax: r.terrain.LODPercentile(far), Axis: 1}
	root := tr.begin(-1, i, "client", "frame.op")
	defer tr.end(root)
	target := func(session string) string {
		return fmt.Sprintf("/frame?session=%s&%s&near=%g&far=%g", session, rectQuery(o.ROI), near, far)
	}
	var err error
	var body []byte
	get := tr.timed(root, i, "net", "GET /frame", func() { body, err = r.fetch(r.nodeURL + target("probe-net")) })
	if err != nil {
		return err
	}
	h := tr.timed(root, i, "serve", "serve.frame_handler", func() { _, err = serveLocal(r.nodeH, target("probe-local")) })
	if err != nil {
		return err
	}
	var st dm.FrameStats
	f := tr.timed(root, i, "dm", "dm.coherent_frame", func() { _, st, err = r.cs.Frame(plane) })
	if err != nil {
		return err
	}
	tr.count(f, "da", float64(st.DA))
	tr.count(f, "fetched", float64(st.Fetched))
	tr.count(f, "retained", float64(st.Retained))
	acc.frames++
	if st.Full {
		acc.fullFrames++
	}
	acc.retained += float64(st.Retained)
	acc.fetched += float64(st.Fetched)
	acc.frameDA += float64(st.DA)
	if own {
		acc.respBytes = append(acc.respBytes, float64(len(body)))
		acc.netOverhead = append(acc.netOverhead, tr.durMs(get)-tr.durMs(h))
	}
	return nil
}

// streamPipeline shadows a progressive answer: /stream in process, then
// the codec alone — Encoder.EncodeNext on each rung's answer and
// Decoder.Next on each frame.
func (r *rig) streamPipeline(tr *tracer, acc *layerAcc, i int, o op, own bool) error {
	pct := o.uniformPct()
	cache := r.node.Cache()
	g := cache.Grid()
	band, _ := g.SnapE(r.terrain.LODPercentile(pct))
	levels, err := stream.LevelsFor(g.Ladder(), band)
	if err != nil {
		return err
	}
	// Rung answers, resident and off the spans: the handler below then
	// runs on cache hits, and the codec spans time the codec only.
	rungs := make([]*dm.Result, len(levels))
	for l, le := range levels {
		if rungs[l], _, err = cache.Query(o.ROI, le); err != nil {
			return err
		}
	}
	root := tr.begin(-1, i, "client", "stream.op")
	defer tr.end(root)
	target := fmt.Sprintf("/stream?%s&lod=%g", rectQuery(o.ROI), pct)
	var rec *httptest.ResponseRecorder
	h := tr.timed(root, i, "serve", "serve.stream_handler", func() { rec, err = serveLocal(r.nodeH, target) })
	if err != nil {
		return err
	}
	var get int
	if own {
		get = tr.timed(root, i, "net", "GET /stream", func() { _, err = r.fetch(r.nodeURL + target) })
		if err != nil {
			return err
		}
	}

	enc, err := stream.NewEncoder(o.ROI, levels)
	if err != nil {
		return err
	}
	wire := bytes.NewBuffer(enc.Header())
	toFirst := 0
	for l := range levels {
		var frame []byte
		e := tr.timed(root, i, "stream", "stream.encode", func() { frame, err = enc.EncodeNext(rungs[l]) })
		if err != nil {
			return err
		}
		tr.count(e, "bytes", float64(len(frame)))
		wire.Write(frame)
		if l == 0 {
			toFirst = wire.Len()
		}
	}
	toExact := wire.Len()
	dec := stream.NewDecoder()
	if err := dec.Attach(wire); err != nil {
		return err
	}
	for !dec.Done() {
		tr.timed(root, i, "stream", "stream.decode", func() { _, _, err = dec.Next() })
		if err != nil {
			return err
		}
	}
	acc.streams++
	acc.batches += float64(len(levels))
	acc.toFirst += float64(toFirst)
	acc.toExact += float64(toExact)
	acc.streamVerts += float64(len(rungs[len(rungs)-1].Vertices))
	if own {
		acc.respBytes = append(acc.respBytes, float64(rec.Body.Len()))
		acc.netOverhead = append(acc.netOverhead, tr.durMs(get)-tr.durMs(h))
	}
	return nil
}

// directPipeline shadows an in-process query on the file-backed store:
// the uniform query cold and warm, the index search under it, point
// fetches by ID, the viewpoint-dependent query cold, and the cost model's
// planning calls.
func (r *rig) directPipeline(tr *tracer, acc *layerAcc, i int, o op, _ bool) error {
	e := r.terrain.LODPercentile(o.uniformPct())
	plane := o.plane(r.terrain)
	if !o.viewDependent() {
		plane = op{ROI: o.ROI, Near: 0.75, Angle: 0.5}.plane(r.terrain)
	}
	root := tr.begin(-1, i, "client", "direct.op")
	defer tr.end(root)

	if err := r.cold.DropCaches(); err != nil {
		return err
	}
	sess := r.cold.NewSession()
	var res *dm.Result
	var err error
	cold := tr.timed(root, i, "dm", "dm.vi_cold", func() { res, err = sess.ViewpointIndependent(o.ROI, e) })
	if err != nil {
		return err
	}
	bd := sess.Breakdown()
	tr.count(cold, "da_data", float64(bd.Data))
	tr.count(cold, "da_index", float64(bd.Index))
	tr.count(cold, "vertices", float64(len(res.Vertices)))
	// Dillabaugh's floor: the pages the fetched records would fill if
	// they were packed back to back.
	recsPerPage := float64(r.cold.NumNodes()) / float64(r.cold.DataPages())
	acc.dataDA += float64(bd.Data)
	acc.floorPages += math.Ceil(float64(len(res.Vertices)) / recsPerPage)
	acc.vertices += float64(len(res.Vertices))

	warm := r.cold.NewSession()
	tr.timed(root, i, "dm", "dm.vi_warm", func() { _, err = warm.ViewpointIndependent(o.ROI, e) })
	if err != nil {
		return err
	}
	hits := 0
	fetchE := math.Min(e, r.cold.MaxE())
	search := tr.timed(root, i, "rtree", "rtree.search", func() {
		err = warm.RTree().Search(geom.BoxFromRect(o.ROI, fetchE, fetchE), func(int64, geom.Box) bool {
			hits++
			return true
		})
	})
	if err != nil {
		return err
	}
	tr.count(search, "hits", float64(hits))
	acc.candidates += float64(hits)

	ids := make([]int64, 0, len(res.Vertices))
	for id := range res.Vertices {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	if len(ids) > 16 {
		ids = ids[:16]
	}
	if len(ids) > 0 {
		fetch := tr.timed(root, i, "dm", "dm.fetch_by_id", func() {
			for _, id := range ids {
				if _, ferr := warm.FetchByID(id); ferr != nil {
					err = ferr
				}
			}
		})
		if err != nil {
			return err
		}
		tr.count(fetch, "calls", float64(len(ids)))
	}

	if err := r.cold.DropCaches(); err != nil {
		return err
	}
	vd := r.cold.NewSession()
	tr.timed(root, i, "dm", "dm.vd_cold", func() { _, err = vd.MultiBase(plane, r.model, 0) })
	if err != nil {
		return err
	}

	var strips []costmodel.Strip
	tr.timed(root, i, "costmodel", "costmodel.plan", func() { strips = r.model.PlanStrips(plane, 0) })
	const estimateCalls = 32
	var sink float64
	est := tr.timed(root, i, "costmodel", "costmodel.estimate", func() {
		for n := 0; n < estimateCalls; n++ {
			sink += r.model.EstimateDA(strips[n%len(strips)].Box())
		}
	})
	tr.count(est, "calls", estimateCalls)
	tr.count(est, "sum_da", sink)
	return nil
}

// pagerProbe measures the three costs every store read is made of, on a
// pager of the harness's own over a file backend: a buffer-pool hit, a
// miss (backend read plus eviction), and how many evictions a miss
// causes. The page-id sequence is seeded and fixed.
func pagerProbe(path string) (hitNs, missUs, evictionsPerMiss float64, err error) {
	const pages, capacity, hot = 2048, 256, 128
	backend, err := pager.OpenFile(path)
	if err != nil {
		return 0, 0, 0, err
	}
	p := pager.NewSharded(backend, capacity, 1, pager.LRU)
	defer p.Close()
	for n := 0; n < pages; n++ {
		f, err := p.Allocate()
		if err != nil {
			return 0, 0, 0, err
		}
		f.Data()[0] = byte(n)
		f.MarkDirty()
		f.Unpin()
	}
	if err := p.DropCache(); err != nil {
		return 0, 0, 0, err
	}
	touch := func(id pager.PageID) error {
		f, err := p.Get(id)
		if err != nil {
			return err
		}
		f.Unpin()
		return nil
	}
	rng := rand.New(rand.NewSource(1))
	for id := 0; id < hot; id++ {
		if err := touch(pager.PageID(id)); err != nil {
			return 0, 0, 0, err
		}
	}
	const hitGets = 200000
	start := time.Now()
	for n := 0; n < hitGets; n++ {
		if err := touch(pager.PageID(rng.Intn(hot))); err != nil {
			return 0, 0, 0, err
		}
	}
	hitNs = float64(time.Since(start)) / hitGets

	p.ResetStats()
	var missNs []float64
	for n := 0; n < 4000; n++ {
		id := pager.PageID(rng.Intn(pages))
		before := p.Stats().Reads
		start := time.Now()
		if err := touch(id); err != nil {
			return 0, 0, 0, err
		}
		d := time.Since(start)
		if p.Stats().Reads > before {
			missNs = append(missNs, float64(d))
		}
	}
	st := p.Stats()
	return hitNs, median(missNs) / 1e3, ratio(float64(st.Evictions), float64(st.Reads)), nil
}
