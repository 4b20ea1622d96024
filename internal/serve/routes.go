package serve

import (
	"encoding/base64"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"dmesh"
	"dmesh/internal/geom"
	"dmesh/internal/obs"
	"dmesh/internal/stream"
	"dmesh/internal/tilecache"
)

// route is one query endpoint. All it supplies is parse: the URL's
// parameters in, the query to run out. Any parse error is the client's
// (400). The returned run fills in the answer and touches no counter,
// histogram, status code or header — Server.serve owns those for every
// route alike.
type route struct {
	path  string
	name  string // the <name> of the tileserver_<name>_* series
	parse func(s *Server, q url.Values, traced bool) (run func(*answer) error, err error)
}

var routes = [...]route{
	{"/tile", "tile", (*Server).parseTile},
	{"/frame", "frame", (*Server).parseFrame},
	{"/patch", "patch", (*Server).parsePatch},
	{"/stream", "stream", (*Server).parseStream},
}

// answer is what a route's run produces, filled in place so the cost
// fields are exact also when run fails.
type answer struct {
	label string     // the slow-log entry's text
	da    uint64     // store disk accesses this request caused
	size  obs.Size   // records those accesses fetched, over how many range queries
	trace *obs.Trace // phase spans, or nil; shipped only when the client asked (trace=1)
	// done, when set, is called once the pipeline has read trace. /frame
	// lends its session's own trace, which the session's next frame
	// resets, and so holds the camera until then.
	done func()

	// The body, one of three. A JSON body (/tile, /frame) is sent as it
	// is and carries its statistics inside. /patch's wire bodies — the
	// cache's memoized encodings, shared with every other reader — are
	// written back to back, each where it lies, and travel with da and
	// cold in X-DM-DA and X-DM-Cold. A planned stream (/stream) is written
	// progressively, one flush per rung, each rung answered by rung.
	body []byte
	mesh *meshBody // the pooled writer holding a JSON body; back to the pool once body is out
	wire [][]byte
	cold bool
	enc  *stream.Encoder
	rung func(level float64) (*dmesh.Result, error)
}

// serve is the one request path behind every route: parse, run, render,
// account, respond.
//
// Accounting rule: the latency histogram sees every request and the
// disk-access histogram every request that ran, failed ones included —
// the pages a failing query read are real work, and the four
// tileserver_*_disk_accesses sums add up to the store's own read count.
// tileserver_*_requests_total counts only requests served, and
// tileserver_request_errors_total every other one (a stream cut after
// its header is out included).
func (s *Server) serve(rt *route, m *endpointMetrics, w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	traced := q.Get("trace") != ""
	h := w.Header()
	var (
		ans    answer
		ctype  = "application/json"
		status = http.StatusBadRequest
	)
	start := time.Now()
	run, err := rt.parse(s, q, traced)
	if err == nil {
		status = http.StatusInternalServerError
		if err = run(&ans); errors.Is(err, tilecache.ErrInvalidKey) {
			status = http.StatusBadRequest
		}
		switch {
		case err != nil:
		case ans.enc != nil:
			err = s.stream(w, &ans, traced)
		case ans.wire != nil:
			ctype = "application/octet-stream"
			h.Set("X-DM-DA", strconv.FormatUint(ans.da, 10))
			h.Set("X-DM-Cold", strconv.FormatBool(ans.cold))
		}
		m.da.Observe(ans.da)
	}
	dur := time.Since(start) // all but the write of a buffered body
	m.latency.Observe(uint64(dur))
	if err == nil {
		m.served.Inc()
		s.slow.Observe(ans.label, dur, ans.da, ans.size, ans.trace)
		if traced && ans.trace != nil {
			// A header, or for a stream — whose trace is complete only now —
			// the trailer declared before its first byte. A trace that fails
			// to encode (open spans) costs the header, never the response.
			if buf, terr := ans.trace.EncodeWire(); terr == nil {
				h.Set("X-DM-Trace", base64.StdEncoding.EncodeToString(buf))
			}
		}
	}
	if ans.done != nil {
		ans.done()
	}
	switch {
	case err == nil && ans.enc != nil: // already out
	case err == nil && ans.wire != nil:
		err = obs.WriteBody(w, http.StatusOK, ctype, ans.wire...)
	case err == nil:
		err = obs.WriteBody(w, http.StatusOK, ctype, ans.body)
	default:
		s.reqErrors.Inc()
		// A stream that fails has its header (and possibly earlier frames)
		// out, so the status line cannot change; ending the body here
		// leaves the client a length-prefixed truncation it can resume
		// from. Everything else fails with its whole body still unsent.
		if ans.enc == nil {
			err = obs.WriteError(w, status, err)
		}
	}
	if ans.mesh != nil {
		meshBodies.Put(ans.mesh)
	}
	if err != nil {
		log.Printf("serve: %s: %v", r.URL.RequestURI(), err)
	}
}

// stream writes a planned stream: the header, then one delta batch per
// LOD-ladder rung from the coarsest down to the one the requested LOD
// snaps to, each flushed as soon as its rung's query completes — so the
// client renders a coarse mesh after the first frame and refines to the
// exact answer.
func (s *Server) stream(w http.ResponseWriter, ans *answer, traced bool) error {
	h := w.Header()
	if traced {
		// The trace and the DA total are complete only after the last
		// batch, so they travel as HTTP trailers: declared here, set on the
		// header map after the body.
		h.Set("Trailer", "X-DM-Trace, X-DM-DA")
	}
	h.Set("Content-Type", "application/octet-stream")
	h.Set("X-DM-Batches", strconv.Itoa(ans.enc.NumBatches()))
	h.Set("X-DM-Target-E", strconv.FormatFloat(ans.enc.TargetE(), 'g', -1, 64))
	_, sent, err := ans.enc.Run(flushWriter{w}, ans.trace, ans.rung)
	if err != nil {
		return err
	}
	s.streamBytes.Observe(uint64(sent.Bytes))
	if traced {
		h.Set("X-DM-DA", strconv.FormatUint(ans.da, 10))
	}
	return nil
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

// queryFloat reads a finite float parameter: strconv accepts "NaN" and
// "Inf", and no coordinate or percentile means anything as either.
func queryFloat(q url.Values, name string, def float64) (float64, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
		err = fmt.Errorf("%s must be finite, got %q", name, v)
	}
	return f, err
}

func queryInt(q url.Values, name string, def int) (int, error) {
	v := q.Get(name)
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
// and each named LOD percentile, which must lie in [0,1]. Every value is
// finite: a NaN percentile once reached Terrain.LODPercentile's index.
func parseROILOD(q url.Values, lods ...lodParam) (geom.Rect, []float64, error) {
	var c [4]float64
	for i, name := range [4]string{"x0", "y0", "x1", "y1"} {
		v, err := queryFloat(q, name, float64(i/2))
		if err != nil {
			return geom.Rect{}, nil, err
		}
		c[i] = v
	}
	pcts := make([]float64, len(lods))
	for i, l := range lods {
		v, err := queryFloat(q, l.name, l.def)
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

// parseTile: /tile answers one ROI at one LOD as JSON.
func (s *Server) parseTile(q url.Values, traced bool) (func(*answer) error, error) {
	roi, pcts, err := parseROILOD(q, lodParam{"lod", 0.9})
	if err != nil {
		return nil, err
	}
	nocache := q.Get("nocache") != ""
	return func(ans *answer) error {
		ans.label = fmt.Sprintf("tile %s lod=%g nocache=%t", roiLabel(roi), pcts[0], nocache)
		lod := s.terrain.LODPercentile(pcts[0])
		var res *dmesh.Result
		var err error
		if nocache {
			// Bypass the tile cache: one session per request, so the
			// session's counters see only this request's page reads — and the
			// trace samples them directly.
			sess := s.store.NewSession()
			ans.trace = sess.NewTrace()
			res, err = sess.ViewpointIndependent(roi, lod)
			ans.da = sess.DiskAccesses()
			if err == nil {
				ans.size = obs.Size{RecordsFetched: res.FetchedRecords, Strips: res.Strips}
			}
		} else {
			// The cache snaps the LOD onto its ladder, materializes any cold
			// tiles (once, however many requests race) and stitches; da is
			// only the store I/O this request's cold tiles cost, and the
			// charge-based trace attributes exactly that.
			ans.trace = dmesh.NewQueryTrace(nil)
			var qs dmesh.TileQueryStats
			res, qs, err = s.cache.QueryTraced(roi, lod, ans.trace)
			lod, ans.da = qs.SnappedE, qs.DA
			ans.size = obs.Size{RecordsFetched: qs.Fetched, Strips: qs.ColdMisses}
		}
		if err != nil {
			return err
		}
		ans.mesh = meshBodies.Get().(*meshBody)
		ans.body, err = ans.mesh.tile(lod, res, ans.da)
		return err
	}, nil
}

// MaxPatchKeys caps the tiles one /patch request may name. The router
// asks a shard for the tiles of one cover that the shard owns, and a
// cover spans at most 3 × 3 tiles (tilecache.Grid.LevelFor), so the cap
// bounds a request's work at one cover's.
const MaxPatchKeys = 9

// parsePatch: /patch answers canonical tiles by key in the binary wire
// encoding — the shard endpoint the cluster router fans out to. A request
// names k keys as k values each of level, ix, iy and band, the i-th of
// each naming the i-th key; the answer is the k bodies back to back in
// request order (DMTP is self-delimiting), X-DM-DA their disk accesses
// summed and X-DM-Cold true if any tile was cold. A body is deterministic
// for a key (the patch encoding sorts nodes), so any replica returns
// byte-identical responses; a warm tile's body is the cache's memoized
// encoding, shared read-only with every other reader.
func (s *Server) parsePatch(q url.Values, traced bool) (func(*answer) error, error) {
	keys, err := patchKeys(q)
	if err != nil {
		return nil, err
	}
	return func(ans *answer) error {
		if traced {
			// Charge-based: the cache counts DA through per-flight sessions,
			// so the trace total equals the X-DM-DA header exactly — the
			// per-hop half of the cluster's cross-hop invariant.
			ans.trace = dmesh.NewQueryTrace(nil)
		}
		bodies := make([][]byte, len(keys))
		for i, k := range keys {
			body, st, err := s.cache.PatchWire(k, ans.trace)
			ans.da += st.DA
			if st.Cold {
				ans.cold = true
				ans.size.RecordsFetched += st.Fetched
				ans.size.Strips++
			}
			if err != nil {
				ans.label = patchLabel(keys[:i+1], ans.cold)
				return err
			}
			bodies[i] = body
		}
		ans.label = patchLabel(keys, ans.cold)
		ans.wire = bodies
		s.patchTiles.Add(uint64(len(keys)))
		return nil
	}, nil
}

// patchKeys reads /patch's key lists. Every list must have the same
// length, from 1 to MaxPatchKeys; in the one-key spelling an absent
// parameter reads as -1, a key the cache rejects (tilecache.ErrInvalidKey).
func patchKeys(q url.Values) ([]tilecache.Key, error) {
	lists := [4][]string{q["level"], q["ix"], q["iy"], q["band"]}
	n := 1
	for _, vs := range lists {
		n = max(n, len(vs))
	}
	if n > MaxPatchKeys {
		return nil, fmt.Errorf("%d tile keys in one request, at most %d", n, MaxPatchKeys)
	}
	for _, vs := range lists {
		if len(vs) != n && !(n == 1 && len(vs) == 0) {
			return nil, fmt.Errorf("key lists of unequal length: level %d, ix %d, iy %d, band %d",
				len(lists[0]), len(lists[1]), len(lists[2]), len(lists[3]))
		}
	}
	keys := make([]tilecache.Key, n)
	for i := range keys {
		k := &keys[i]
		for j, dst := range [4]*int{&k.Level, &k.IX, &k.IY, &k.Band} {
			*dst = -1
			if vs := lists[j]; len(vs) > 0 {
				v, err := strconv.Atoi(vs[i])
				if err != nil {
					return nil, err
				}
				*dst = v
			}
		}
	}
	return keys, nil
}

// patchLabel renders a /patch request for its slow-log entry.
func patchLabel(keys []tilecache.Key, cold bool) string {
	var b strings.Builder
	b.WriteString("patch key=")
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k.String())
	}
	b.WriteString(" cold=")
	b.WriteString(strconv.FormatBool(cold))
	return b.String()
}

// parseStream: /stream answers one ROI progressively. Every rung's
// answer comes through the shared tile cache, so the per-rung queries
// are the same canonical tile fetches /tile and /patch pay for.
//
// resume is the last batch index the client fully received (-1, the
// default, streams everything): the server still replays the earlier
// rungs' queries to rebuild the delta state, but transmits only the
// batches after resume.
func (s *Server) parseStream(q url.Values, traced bool) (func(*answer) error, error) {
	roi, pcts, err := parseROILOD(q, lodParam{"lod", 0.9})
	if err != nil {
		return nil, err
	}
	resume, err := queryInt(q, "resume", -1)
	if err != nil {
		return nil, err
	}
	band, _ := s.cache.Grid().SnapE(s.terrain.LODPercentile(pcts[0]))
	enc, err := stream.Plan(roi, s.ladder, band, resume)
	if err != nil {
		return nil, err
	}
	return func(ans *answer) error {
		ans.label = fmt.Sprintf("stream %s lod=%g resume=%d", roiLabel(roi), pcts[0], resume)
		if traced {
			ans.trace = dmesh.NewQueryTrace(nil)
		}
		ans.enc = enc
		ans.rung = func(level float64) (*dmesh.Result, error) {
			res, qs, err := s.cache.QueryTraced(roi, level, ans.trace)
			ans.da += qs.DA
			ans.size.RecordsFetched += qs.Fetched
			ans.size.Strips += qs.ColdMisses
			return res, err
		}
		return nil
	}, nil
}

// parseFrame: /frame answers one frame of a named client's camera
// animation through its retained coherent session. near and far are LOD
// percentiles at the low- and high-y edges of the view (equal values
// give a uniform frame, and near may not exceed far: the plane would be
// inverted); overlapping consecutive frames are answered incrementally.
func (s *Server) parseFrame(q url.Values, traced bool) (func(*answer) error, error) {
	name := q.Get("session")
	if name == "" {
		return nil, errors.New("session parameter required")
	}
	roi, pcts, err := parseROILOD(q, lodParam{"near", 0.75}, lodParam{"far", 0.99})
	if err != nil {
		return nil, err
	}
	if pcts[0] > pcts[1] {
		return nil, fmt.Errorf("near (%g) must not exceed far (%g)", pcts[0], pcts[1])
	}
	return func(ans *answer) error {
		plane := dmesh.QueryPlane{
			R:    roi,
			EMin: s.terrain.LODPercentile(pcts[0]),
			EMax: s.terrain.LODPercentile(pcts[1]),
			Axis: 1,
		}
		cam := s.lookupCamera(name)
		cam.mu.Lock()
		ans.done = cam.mu.Unlock
		ans.label = fmt.Sprintf("frame session=%s %s", name, roiLabel(roi))
		ans.trace = cam.tr
		res, st, err := cam.cs.Frame(plane)
		ans.da = st.DA // exact on the error path too: a failed frame still paid for the pages it read
		if err != nil {
			return err
		}
		ans.size = obs.Size{RecordsFetched: st.Fetched, Strips: res.Strips}
		ans.mesh = meshBodies.Get().(*meshBody)
		ans.body, err = ans.mesh.frame(name, st, res)
		return err
	}, nil
}
