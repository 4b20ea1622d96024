package cluster_test

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"dmesh/internal/cluster"
	"dmesh/internal/dm"
	"dmesh/internal/geom"
	"dmesh/internal/obs"
	"dmesh/internal/serve"
	"dmesh/internal/stream"
	"dmesh/internal/tilecache"
	"dmesh/internal/wire"
)

// localStream encodes, over the single-node reference cache, the stream
// Router.StreamTraced must produce for Q(r, e).
func localStream(t *testing.T, c *tilecache.Cache, r geom.Rect, e float64) *stream.Stream {
	t.Helper()
	band, _ := c.Grid().SnapE(e)
	levels, err := stream.LevelsFor(c.Grid().Ladder(), band)
	if err != nil {
		t.Fatal(err)
	}
	meshes := make([]*dm.Result, 0, len(levels))
	for _, le := range levels {
		res, _, err := c.Query(r, le)
		if err != nil {
			t.Fatal(err)
		}
		meshes = append(meshes, res)
	}
	st, err := stream.Encode(r, levels, meshes)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRouterStreamMatchesSingleNode: a progressive answer assembled from
// per-shard patch fetches must be byte-identical to the single-node
// stream for the same query, with the fan-out accounting invariant
// holding across every rung — and stay so after a shard dies.
func TestRouterStreamMatchesSingleNode(t *testing.T) {
	tr := terrain(t, "highland")
	single := singleNode(t, tr)
	lc := startLocal(t, tr, 3)
	rng := rand.New(rand.NewSource(23))
	ladder := single.Grid().Ladder()

	check := func(roi geom.Rect, e float64, resume int) {
		t.Helper()
		want := localStream(t, single, roi, e)
		var wantBody bytes.Buffer
		if _, err := want.WriteTo(&wantBody, resume); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		res, st, err := lc.Router.StreamTraced(roi, e, resume, &got, nil)
		if err != nil {
			t.Fatalf("Stream(%v, %g, %d): %v", roi, e, resume, err)
		}
		if !bytes.Equal(got.Bytes(), wantBody.Bytes()) {
			t.Fatalf("clustered stream (%d B) differs from single node (%d B)", got.Len(), wantBody.Len())
		}
		if st.Attempts != st.Tiles+st.Redirected {
			t.Fatalf("attempts %d != tiles %d + redirected %d", st.Attempts, st.Tiles, st.Redirected)
		}
		if st.BytesSent != got.Len() {
			t.Fatalf("BytesSent %d, wrote %d", st.BytesSent, got.Len())
		}
		if st.Batches != len(want.Frames) || st.Sent != len(want.Frames)-(resume+1) {
			t.Fatalf("batches %d sent %d, want %d and %d", st.Batches, st.Sent, len(want.Frames), len(want.Frames)-(resume+1))
		}
		direct, _, derr := single.Query(roi, e)
		if derr != nil {
			t.Fatal(derr)
		}
		if !bytes.Equal(canonicalMesh(res), canonicalMesh(direct)) {
			t.Fatal("StreamTraced's returned mesh differs from the direct query answer")
		}
	}

	for _, roi := range randRects(rng, 4) {
		check(roi, ladder[rng.Intn(len(ladder))], -1)
	}
	roi := geom.Rect{MinX: 0.15, MinY: 0.1, MaxX: 0.8, MaxY: 0.75}
	check(roi, ladder[0], 1) // resume skips the first two batches

	// A dead shard must not change a single byte: failover re-fetches the
	// same canonical tiles elsewhere.
	lc.KillShard(1)
	check(roi, ladder[0], -1)

	if _, st, err := lc.Router.StreamTraced(roi, ladder[0], 99, &bytes.Buffer{}, nil); err == nil {
		t.Fatalf("resume past the schedule succeeded (stats %+v)", st)
	}
}

// truncatingFront fronts a healthy shard handler but serves every /patch
// body cut in half. In "clean" mode the response declares the short
// length — it looks like a complete 200 and only patch decoding can
// reject it; in "lying" mode it declares the full length and the cut
// surfaces in the client transport as an unexpected EOF.
func truncatingFront(t *testing.T, h http.Handler, lying bool) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/patch" {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		half := body[:len(body)/2]
		for k, vs := range rec.Header() {
			if k == "Content-Length" {
				continue
			}
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		declared := len(half)
		if lying {
			declared = len(body)
		}
		w.Header().Set("Content-Length", strconv.Itoa(declared))
		w.WriteHeader(rec.Code)
		w.Write(half)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestFailoverTruncatedBodies is the regression for the router's
// truncation handling: shards that serve cut /patch bodies — whether the
// truncation is visible in the framing (lying Content-Length) or looks
// like a clean short 200 — must count as failed attempts and fail over,
// keeping attempts == tiles + redirects even when several failures
// precede the success. The old accounting recorded at most one redirect
// per tile, so any query with a two-failure tile broke the invariant.
func TestFailoverTruncatedBodies(t *testing.T) {
	tr := terrain(t, "highland")
	single := singleNode(t, tr)

	newShard := func() *serve.Server {
		s, err := serve.New(serve.Config{Terrain: tr})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	good := newShard()
	goodTS := httptest.NewServer(good.Handler(false))
	t.Cleanup(goodTS.Close)
	fronts := []*httptest.Server{
		truncatingFront(t, newShard().Handler(false), false), // clean truncation
		truncatingFront(t, newShard().Handler(false), true),  // lying Content-Length
		goodTS,
	}

	urls := make([]string, len(fronts))
	ids := []string{"shard-0", "shard-1", "shard-2"}
	for i, f := range fronts {
		urls[i] = f.URL
	}
	rt, err := cluster.NewRouter(cluster.Config{Shards: urls, IDs: ids, Grid: good.Grid()})
	if err != nil {
		t.Fatal(err)
	}
	reg := rt.Registry()

	rng := rand.New(rand.NewSource(41))
	ladder := single.Grid().Ladder()
	maxRedirect := 0
	for _, roi := range randRects(rng, 12) {
		e := ladder[rng.Intn(len(ladder))]
		res, st, err := rt.Query(roi, e)
		if err != nil {
			t.Fatalf("Query(%v, %g): %v", roi, e, err)
		}
		if st.Attempts != st.Tiles+st.Redirected {
			t.Fatalf("attempts %d != tiles %d + redirected %d", st.Attempts, st.Tiles, st.Redirected)
		}
		direct, _, derr := single.Query(roi, e)
		if derr != nil {
			t.Fatal(derr)
		}
		if !bytes.Equal(canonicalMesh(res), canonicalMesh(direct)) {
			t.Fatal("answer assembled around truncating shards differs from single node")
		}
		if st.Redirected > maxRedirect {
			maxRedirect = st.Redirected
		}
	}
	// The ring must have routed some tile through both truncating shards
	// before the good one, or this test isn't exercising the multi-failure
	// accounting at all.
	if maxRedirect < 2 {
		t.Fatalf("no query needed >= 2 redirects (max %d); ring layout defeats the regression", maxRedirect)
	}
	// Every failed attempt preceded a success (the good shard always
	// answers), so the two global counters must agree exactly.
	errs := reg.Counter("cluster_router_shard_errors_total", "").Value()
	reds := reg.Counter("cluster_router_redirects_total", "").Value()
	if errs == 0 || errs != reds {
		t.Fatalf("shard errors %d, redirects %d; want equal and positive", errs, reds)
	}

	// Streaming rides the same fetch path: the progressive answer through
	// the truncating cluster must still be byte-identical to single node.
	roi := geom.Rect{MinX: 0.1, MinY: 0.15, MaxX: 0.85, MaxY: 0.8}
	want := localStream(t, single, roi, ladder[0])
	var wantBody bytes.Buffer
	if _, err := want.WriteTo(&wantBody, -1); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if _, _, err := rt.StreamTraced(roi, ladder[0], -1, &got, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), wantBody.Bytes()) {
		t.Fatal("stream through truncating cluster differs from single node")
	}
}

// hostileFront answers every request the way a broken or hostile shard
// might: "loud" sends a 500 with a megabyte of body, otherwise a 200
// that declares a terabyte and sends a few bytes.
func hostileFront(t *testing.T, loud bool) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if loud {
			w.WriteHeader(http.StatusInternalServerError)
			w.Write(bytes.Repeat([]byte("shard on fire! "), 1<<16))
			return
		}
		w.Header().Set("Content-Length", strconv.Itoa(1<<40))
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("DMTP"))
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestFailoverHostileBodies is the regression for the router's unbounded
// reads: a non-200 response's body used to be quoted whole into the
// attempt's error, and any declared Content-Length was trusted. Either
// shard must now cost one bounded failed attempt — on the tile path and
// on the scrape path — with the failover accounting intact.
func TestFailoverHostileBodies(t *testing.T) {
	tr := terrain(t, "highland")
	single := singleNode(t, tr)
	good, err := serve.New(serve.Config{Terrain: tr})
	if err != nil {
		t.Fatal(err)
	}
	goodTS := httptest.NewServer(good.Handler(false))
	t.Cleanup(goodTS.Close)
	loud, huge := hostileFront(t, true), hostileFront(t, false)

	newRouter := func(urls ...string) *cluster.Router {
		t.Helper()
		ids := []string{"shard-0", "shard-1", "shard-2"}[:len(urls)]
		rt, err := cluster.NewRouter(cluster.Config{Shards: urls, IDs: ids, Grid: good.Grid()})
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	roi := geom.Rect{MinX: 0.1, MinY: 0.15, MaxX: 0.85, MaxY: 0.8}
	ladder := single.Grid().Ladder()

	// Alone, each hostile shard fails the query with a short error.
	for name, ts := range map[string]*httptest.Server{"loud": loud, "huge": huge} {
		rt := newRouter(ts.URL)
		_, st, err := rt.Query(roi, ladder[0])
		if err == nil {
			t.Fatalf("%s: query against a hostile shard succeeded", name)
		}
		if len(err.Error()) > 1024 {
			t.Errorf("%s: error quotes %d bytes of the response", name, len(err.Error()))
		}
		if name == "huge" && !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("huge: err = %v, want ErrCorrupt", err)
		}
		if st.Attempts != st.Tiles {
			t.Errorf("%s: %d attempts for %d tiles on a one-shard ring", name, st.Attempts, st.Tiles)
		}
		for _, sh := range rt.Health().Shards {
			if sh.Healthy || sh.Error == "" || len(sh.Error) > 1024 {
				t.Errorf("%s: health probe reported %+v", name, sh)
			}
		}
	}

	// Behind a good shard they are failed attempts the router fails over
	// from, and the accounting invariant holds through every one.
	rt := newRouter(loud.URL, huge.URL, goodTS.URL)
	rng := rand.New(rand.NewSource(43))
	maxRedirect := 0
	for _, r := range randRects(rng, 12) {
		e := ladder[rng.Intn(len(ladder))]
		res, st, err := rt.Query(r, e)
		if err != nil {
			t.Fatalf("Query(%v, %g): %v", r, e, err)
		}
		if st.Attempts != st.Tiles+st.Redirected {
			t.Fatalf("attempts %d != tiles %d + redirected %d", st.Attempts, st.Tiles, st.Redirected)
		}
		direct, _, derr := single.Query(r, e)
		if derr != nil {
			t.Fatal(derr)
		}
		if !bytes.Equal(canonicalMesh(res), canonicalMesh(direct)) {
			t.Fatal("answer assembled around hostile shards differs from single node")
		}
		if st.Redirected > maxRedirect {
			maxRedirect = st.Redirected
		}
	}
	if maxRedirect < 2 {
		t.Fatalf("no query needed >= 2 redirects (max %d); ring layout defeats the regression", maxRedirect)
	}
}

// lyingFront fronts a real shard whose /patch answers are well-formed and
// wrong in a way no decoder can see. With wrongTile it answers every key
// with the valid body of another tile — the neighbour in x, or at level 0
// the same cell at another LOD, what a shard on a different grid or ladder
// would send — and names a band its grid does not have on /hottiles;
// otherwise it serves the right body without the X-DM-DA header.
func lyingFront(t *testing.T, h http.Handler, wrongTile bool) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case wrongTile && r.URL.Path == "/hottiles":
			w.Write([]byte(`[{"level":0,"ix":0,"iy":0,"band":99,"hits":7}]`))
			return
		case r.URL.Path != "/patch":
			h.ServeHTTP(w, r)
			return
		}
		if wrongTile {
			q := r.URL.Query()
			if level, _ := strconv.Atoi(q.Get("level")); level > 0 {
				ix, _ := strconv.Atoi(q.Get("ix"))
				q.Set("ix", strconv.Itoa(ix^1))
			} else {
				band, _ := strconv.Atoi(q.Get("band"))
				q.Set("band", strconv.Itoa(band^1))
			}
			r.URL.RawQuery = q.Encode()
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		for k, vs := range rec.Header() {
			if wrongTile || k != "X-Dm-Da" {
				w.Header()[k] = vs
			}
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestFailoverLyingShards is the regression for two answers the router
// used to accept: a valid body for a tile it did not ask for (stitched
// into a silently wrong mesh), and a response without X-DM-DA (counted as
// zero disk accesses). Each is now a failed attempt: alone such a shard
// fails the query, behind a replica the replica answers, and a hot-tile
// report naming a key outside the grid is a failed warm-up, not a fetch.
func TestFailoverLyingShards(t *testing.T) {
	tr := terrain(t, "highland")
	single := singleNode(t, tr)
	newShard := func() *serve.Server {
		s, err := serve.New(serve.Config{Terrain: tr})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	good := newShard()
	goodTS := httptest.NewServer(good.Handler(false))
	t.Cleanup(goodTS.Close)
	wrongTile := lyingFront(t, newShard().Handler(false), true)
	noDA := lyingFront(t, newShard().Handler(false), false)
	newRouter := func(urls ...string) *cluster.Router {
		t.Helper()
		ids := []string{"shard-0", "shard-1", "shard-2"}[:len(urls)]
		rt, err := cluster.NewRouter(cluster.Config{Shards: urls, IDs: ids, Grid: good.Grid()})
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	ladder := single.Grid().Ladder()
	rng := rand.New(rand.NewSource(47))
	rects := append(randRects(rng, 12), geom.Rect{MinX: -1, MinY: -1, MaxX: 2, MaxY: 2}) // the last is level 0

	for name, ts := range map[string]*httptest.Server{"wrong tile": wrongTile, "no X-DM-DA": noDA} {
		rt := newRouter(ts.URL)
		for _, r := range rects {
			if _, _, err := rt.Query(r, ladder[1]); !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("%s: Query(%v) alone: err = %v, want ErrCorrupt", name, r, err)
			}
		}
	}

	rt := newRouter(wrongTile.URL, noDA.URL, goodTS.URL)
	maxRedirect := 0
	for _, r := range rects {
		e := ladder[rng.Intn(len(ladder))]
		res, st, err := rt.Query(r, e)
		if err != nil {
			t.Fatalf("Query(%v, %g): %v", r, e, err)
		}
		if st.Attempts != st.Tiles+st.Redirected {
			t.Fatalf("attempts %d != tiles %d + redirected %d", st.Attempts, st.Tiles, st.Redirected)
		}
		direct, _, derr := single.Query(r, e)
		if derr != nil {
			t.Fatal(derr)
		}
		if !bytes.Equal(canonicalMesh(res), canonicalMesh(direct)) {
			t.Fatal("answer assembled around lying shards differs from single node")
		}
		maxRedirect = max(maxRedirect, st.Redirected)
	}
	if maxRedirect < 2 {
		t.Fatalf("no query needed >= 2 redirects (max %d); ring layout defeats the regression", maxRedirect)
	}
	if st, err := rt.Rebalance(4, 2); err != nil || st.Failed == 0 {
		t.Fatalf("Rebalance over a shard reporting an out-of-grid hot tile: %+v, %v; want failed warm-ups", st, err)
	}
}

// TestStreamLatencyHistograms: a stream's rung queries each record their
// latency in the query histogram, as a Query does, and the whole stream
// records its own in the stream histogram — once, and not in the query
// histogram, whose count would otherwise run ahead of queries_total.
func TestStreamLatencyHistograms(t *testing.T) {
	lc := startLocal(t, terrain(t, "highland"), 2)
	reg := lc.Router.Registry()
	queries := reg.Counter("cluster_router_queries_total", "")
	queryNs := reg.Histogram("cluster_router_query_latency_nanos", "")
	streamNs := reg.Histogram("cluster_router_stream_latency_nanos", "")
	ladder := lc.Router.Grid().Ladder()
	if len(ladder) < 6 {
		t.Fatalf("ladder of %d rungs; the test needs six", len(ladder))
	}
	q0, h0, s0 := queries.Value(), queryNs.Snapshot().Count, streamNs.Snapshot().Count
	roi := geom.Rect{MinX: 0.15, MinY: 0.1, MaxX: 0.8, MaxY: 0.75}
	_, st, err := lc.Router.StreamTraced(roi, ladder[len(ladder)-6], -1, io.Discard, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Batches != 6 {
		t.Fatalf("%d batches, want 6", st.Batches)
	}
	q, h, s := queries.Value()-q0, queryNs.Snapshot().Count-h0, streamNs.Snapshot().Count-s0
	if q != 6 || h != q || s != 1 {
		t.Fatalf("one six-batch stream: queries_total +%d, query histogram +%d, stream histogram +%d; want 6, 6, 1", q, h, s)
	}
}

// slowPatches delays every shard request and notes when the last one
// ended: its body closed, or its round trip failed. A fetch that Stream
// left running ends after Stream returned.
type slowPatches struct {
	base  *http.Transport
	delay time.Duration
	ended atomic.Int64 // UnixNano of the latest end
}

func (s *slowPatches) end() {
	now := time.Now().UnixNano()
	for old := s.ended.Load(); now > old && !s.ended.CompareAndSwap(old, now); old = s.ended.Load() {
	}
}

func (s *slowPatches) RoundTrip(r *http.Request) (*http.Response, error) {
	time.Sleep(s.delay)
	resp, err := s.base.RoundTrip(r)
	if err != nil {
		s.end()
		return nil, err
	}
	resp.Body = &endingBody{ReadCloser: resp.Body, s: s}
	return resp, nil
}

type endingBody struct {
	io.ReadCloser
	s *slowPatches
}

func (b *endingBody) Close() error {
	err := b.ReadCloser.Close()
	b.s.end()
	return err
}

// scriptedWriter passes the stream header and its batch frames on to w,
// and before batch frame `at` either fails (kill < 0) or kills shard kill.
type scriptedWriter struct {
	w      io.Writer
	writes int
	at     int
	kill   int
	lc     *cluster.LocalCluster
}

var errClientGone = errors.New("client went away")

func (s *scriptedWriter) Write(p []byte) (int, error) {
	if s.at >= 0 && s.writes-1 == s.at { // write 0 is the header
		if s.kill < 0 {
			return 0, errClientGone
		}
		s.lc.KillShard(s.kill)
	}
	s.writes++
	return s.w.Write(p)
}

// TestStreamLookaheadExits drives every way out of a stream while the next
// rung's fetch is in flight — the writer failing on the first, third or
// last frame, a shard killed between rungs, a resumed stream — and wants
// each to return with no fetch left running and no goroutine left behind,
// the fan-out accounting intact, and the traced stream's DA attributed
// exactly, although a prefetched rung's hops begin before its query span.
func TestStreamLookaheadExits(t *testing.T) {
	tr := terrain(t, "highland")
	single := singleNode(t, tr)
	ladder := single.Grid().Ladder()
	roi := geom.Rect{MinX: 0.15, MinY: 0.1, MaxX: 0.8, MaxY: 0.75}
	e := ladder[0]
	last := len(ladder) - 1
	want := localStream(t, single, roi, e)

	type exit struct {
		name   string
		resume int
		at     int // batch frame the writer acts before; -1 never
		kill   int // shard it kills there; -1 fails instead
	}
	exits := []exit{
		{"fails on frame 0", -1, 0, -1},
		{"fails on frame 2", -1, 2, -1},
		{"fails on the last frame", -1, last, -1},
		{"shard killed between rungs", -1, 1, 1},
		{"resumed", 2, -1, -1},
	}
	for _, x := range exits {
		fails := x.at >= 0 && x.kill < 0
		t.Run(x.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			lc := startLocal(t, tr, 3)
			urls := make([]string, len(lc.HTTP))
			for i, ts := range lc.HTTP {
				urls[i] = ts.URL
			}
			slow := &slowPatches{base: http.DefaultTransport.(*http.Transport).Clone(), delay: 20 * time.Millisecond}
			rt, err := cluster.NewRouter(cluster.Config{
				Shards: urls, IDs: lc.Router.Ring().IDs(), Grid: lc.Router.Grid(),
				Client: &http.Client{Transport: slow},
			})
			if err != nil {
				t.Fatal(err)
			}

			var got bytes.Buffer
			trace := obs.NewTrace(nil)
			_, st, err := rt.StreamTraced(roi, e, x.resume, &scriptedWriter{w: &got, at: x.at, kill: x.kill, lc: lc}, trace)
			returned := time.Now()
			switch {
			case fails && !errors.Is(err, errClientGone):
				t.Fatalf("err = %v, want the writer's", err)
			case !fails && err != nil:
				t.Fatal(err)
			case fails && st.Sent != x.at:
				t.Errorf("sent %d frames before the writer failed on frame %d", st.Sent, x.at)
			}
			if !fails {
				var wantBody bytes.Buffer
				if _, err := want.WriteTo(&wantBody, x.resume); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), wantBody.Bytes()) {
					t.Errorf("stream (%d B) differs from single node (%d B)", got.Len(), wantBody.Len())
				}
			}
			if x.kill >= 0 && st.Redirected == 0 {
				t.Error("no tile was redirected after the kill; the kill was not exercised")
			}
			if st.Attempts != st.Tiles+st.Redirected {
				t.Errorf("attempts %d != tiles %d + redirected %d", st.Attempts, st.Tiles, st.Redirected)
			}
			checkTracedQuery(t, trace, st.DA, st.TraceDA)
			for i, sp := range trace.Spans() {
				if sp.SelfDur() < 0 {
					t.Errorf("span %d (%s): self time %v", i, sp.Phase, sp.SelfDur())
				}
			}

			lc.Close()
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				slow.base.CloseIdleConnections()
				time.Sleep(5 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("%d goroutines 5 s after the stream returned, %d before it", n, base)
			}
			if late := time.Unix(0, slow.ended.Load()).Sub(returned); late > 0 {
				t.Errorf("a shard request ended %v after Stream returned", late)
			}
		})
	}
}
