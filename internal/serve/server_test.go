package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dmesh/internal/dm"
	"dmesh/internal/tilecache"
)

// TestObsSmoke drives the introspection endpoints end to end: /metrics
// must be Prometheus text carrying the server's series — the cache,
// camera and store facts read at scrape time included — and /slowlog
// must return phase-attributed entries.
func TestObsSmoke(t *testing.T) {
	_, ts := StartTestHarness(t)

	resp, body := Fetch(t, ts.URL, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content type %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE tileserver_tile_requests_total counter",
		"tileserver_tile_requests_total 3",
		"tileserver_frame_requests_total 2",
		"# TYPE tileserver_tile_disk_accesses histogram",
		"tileserver_tile_disk_accesses_count 3",
		"tileserver_cameras_active 1",
		"tileserver_camera_evictions_total 0",
		"tileserver_cache_entries",
		"tileserver_cache_queries 2", // the nocache tile bypasses the cache
		"tileserver_cache_hits",
		"tileserver_cache_materialize_disk_accesses",
		"tileserver_cache_outpairs_kept",
		"tileserver_cache_outpairs_dropped",
		"# TYPE tileserver_store_disk_accesses gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	resp, body = Fetch(t, ts.URL, "/slowlog?n=10")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/slowlog: status %d", resp.StatusCode)
	}
	var slow struct {
		ThresholdNanos int64 `json:"threshold_nanos"`
		Entries        []struct {
			Query  string `json:"query"`
			DA     uint64 `json:"disk_accesses"`
			Phases []struct {
				Phase string `json:"phase"`
				DA    uint64 `json:"disk_accesses"`
			} `json:"phases"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(body, &slow); err != nil {
		t.Fatalf("/slowlog: %v\n%s", err, body)
	}
	if len(slow.Entries) != 5 {
		t.Fatalf("/slowlog: got %d entries, want 5 (threshold 0 admits all)", len(slow.Entries))
	}
	// Every traced entry's phase DA must sum exactly to the entry's DA —
	// the attribution invariant, visible all the way out at the endpoint.
	for _, e := range slow.Entries {
		var sum uint64
		for _, p := range e.Phases {
			sum += p.DA
		}
		if sum != e.DA {
			t.Errorf("entry %q: phase DA sum %d != entry DA %d", e.Query, sum, e.DA)
		}
		if e.DA > 0 && len(e.Phases) == 0 {
			t.Errorf("entry %q: %d disk accesses but no phase breakdown", e.Query, e.DA)
		}
	}

	if resp, _ := Fetch(t, ts.URL, "/debug/pprof/"); resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/: status %d", resp.StatusCode)
	}
}

// TestSlowLogSaysHowBigTheQueryWas: the slow log alone explains a latency
// spread that is a size spread. A 0.16-area cut at the 50th LOD percentile
// and a 0.01-area cut at the 99th differ by orders of magnitude in time
// because they differ by orders of magnitude in records fetched, and the
// entries say so themselves; a cache hit, which fetched nothing, says
// nothing.
func TestSlowLogSaysHowBigTheQueryWas(t *testing.T) {
	s := NewTestServer(t, 65, 0)
	ts := httptest.NewServer(s.Handler(true))
	defer ts.Close()
	type entry struct {
		Seq     uint64 `json:"seq"`
		Query   string `json:"query"`
		Records int    `json:"records_fetched"`
		Strips  int    `json:"strips"`
	}
	// get issues the requests, then returns the slow log by intake order
	// (seq 1 first) and its worst entry.
	get := func(paths ...string) (bySeq []entry, worst entry) {
		t.Helper()
		for _, path := range paths {
			if resp, body := Fetch(t, ts.URL, path); resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
			}
		}
		_, body := Fetch(t, ts.URL, "/slowlog?n=10")
		var slow struct {
			Entries []entry `json:"entries"`
		}
		if err := json.Unmarshal(body, &slow); err != nil {
			t.Fatalf("/slowlog: %v\n%s", err, body)
		}
		bySeq = make([]entry, len(slow.Entries))
		for _, e := range slow.Entries {
			bySeq[e.Seq-1] = e
		}
		return bySeq, slow.Entries[0]
	}
	const large, small = "/tile?x0=0.3&y0=0.3&x1=0.7&y1=0.7&lod=0.5", "/tile?x0=0.45&y0=0.45&x1=0.55&y1=0.55&lod=0.99"
	log, worst := get(small, large, small+"&nocache=1", large+"&nocache=1")
	if len(log) != 4 {
		t.Fatalf("/slowlog: %d entries, want 4", len(log))
	}
	for _, i := range []int{0, 2} { // through the cache, then past it
		small, large := log[i], log[i+1]
		if small.Strips < 1 || large.Strips < 1 {
			t.Errorf("%q and %q ran %d and %d range queries", small.Query, large.Query, small.Strips, large.Strips)
		}
		if large.Records < 20*max(small.Records, 1) { // at 65² the small cut may well fetch none
			t.Errorf("%q fetched %d records, %q %d: not the spread intended", small.Query, small.Records, large.Query, large.Records)
		}
	}
	// Slowest first: the worst entry is one of the large cuts, and reads as
	// one.
	if worst.Seq != 2 && worst.Seq != 4 {
		t.Errorf("worst entry is %q, not a large cut", worst.Query)
	}
	if worst.Records < max(log[0].Records, log[2].Records) {
		t.Errorf("worst entry %q fetched %d records, fewer than a small cut", worst.Query, worst.Records)
	}
	if log, _ = get(large); log[4].Records != 0 || log[4].Strips != 0 {
		t.Errorf("cache hit reports %d records over %d range queries", log[4].Records, log[4].Strips)
	}
}

// TestMetricsEncodingDeterministic is the regression for the encoding
// determinism audit, on the one stats surface left: for a fixed server
// state two back-to-back /metrics pages must be byte-identical — no
// map-iteration order, no unsorted series, nothing that depends on when
// the page is rendered.
func TestMetricsEncodingDeterministic(t *testing.T) {
	_, ts := StartTestHarness(t)
	_, a := Fetch(t, ts.URL, "/metrics")
	_, b := Fetch(t, ts.URL, "/metrics")
	if !bytes.Equal(a, b) {
		t.Errorf("/metrics not deterministic:\n%s\n%s", a, b)
	}
}

// TestIntrospectionOptOut checks that introspect=false leaves only the
// serving endpoints mounted, and that the retired stats surfaces are
// mounted in neither mode.
func TestIntrospectionOptOut(t *testing.T) {
	s := NewTestServer(t, 33, 0)
	ts := httptest.NewServer(s.Handler(false))
	defer ts.Close()
	for _, path := range []string{"/metrics", "/slowlog", "/debug/pprof/", "/stats", "/cachestats", "/debug/vars"} {
		if resp, _ := Fetch(t, ts.URL, path); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s with introspection off: status %d, want 404", path, resp.StatusCode)
		}
	}
	if resp, _ := Fetch(t, ts.URL, "/gridinfo"); resp.StatusCode != http.StatusOK {
		t.Errorf("GET /gridinfo: status %d", resp.StatusCode)
	}
	on := httptest.NewServer(s.Handler(true))
	defer on.Close()
	for _, path := range []string{"/stats", "/cachestats", "/debug/vars"} {
		if resp, _ := Fetch(t, on.URL, path); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s with introspection on: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestPatchEndpoint fetches a wire patch, checks it decodes to the same
// patch the cache serves locally, and that the stats headers carry the
// cold/warm distinction. Invalid keys must be a 400.
func TestPatchEndpoint(t *testing.T) {
	s := NewTestServer(t, 33, 0)
	ts := httptest.NewServer(s.Handler(false))
	defer ts.Close()

	g := s.Grid()
	k := tilecache.Key{Level: 1, IX: 0, IY: 1, Band: len(g.Ladder()) / 2}
	path := fmt.Sprintf("/patch?level=%d&ix=%d&iy=%d&band=%d", k.Level, k.IX, k.IY, k.Band)

	// Cold-cache discipline: the store's buffer pool is warm from the
	// build, so empty it first or the cold fetch may cost zero DA.
	if err := s.Store().DropCaches(); err != nil {
		t.Fatal(err)
	}

	resp, body := Fetch(t, ts.URL, path)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold patch: status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("content type %q", ct)
	}
	if c := resp.Header.Get("X-DM-Cold"); c != "true" {
		t.Errorf("first fetch X-DM-Cold = %q, want true", c)
	}
	da, err := strconv.ParseUint(resp.Header.Get("X-DM-DA"), 10, 64)
	if err != nil || da == 0 {
		t.Errorf("cold fetch X-DM-DA = %q, want a positive count", resp.Header.Get("X-DM-DA"))
	}
	got, err := dm.DecodeTilePatch(body)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	want, _, err := s.Cache().Patch(k)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dm.EncodeTilePatch(got), dm.EncodeTilePatch(want)) {
		t.Error("served patch differs from the cache's own")
	}

	// Warm: same bytes, zero DA, not cold.
	resp2, body2 := Fetch(t, ts.URL, path)
	if resp2.Header.Get("X-DM-Cold") != "false" || resp2.Header.Get("X-DM-DA") != "0" {
		t.Errorf("warm fetch: cold=%q da=%q", resp2.Header.Get("X-DM-Cold"), resp2.Header.Get("X-DM-DA"))
	}
	if !bytes.Equal(body, body2) {
		t.Error("warm fetch served different bytes")
	}

	if resp, _ := Fetch(t, ts.URL, "/patch?level=99&ix=0&iy=0&band=0"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid key: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := Fetch(t, ts.URL, "/patch?level=x"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed key: status %d, want 400", resp.StatusCode)
	}
}

// TestPatchMultiKey: a /patch request naming k keys answers the k
// one-key bodies back to back in request order, with X-DM-DA their sum
// and X-DM-Cold true when any tile was cold. Two fresh servers over one
// terrain pay the same cold materializations, one key by key and one in a
// single request. Key lists of unequal length, and more keys than
// MaxPatchKeys, are the client's error.
func TestPatchMultiKey(t *testing.T) {
	band := len(NewTestServer(t, 33, 0).Grid().Ladder()) / 2
	keys := []tilecache.Key{{Level: 2, IX: 3, IY: 1, Band: band}, {Level: 2, IX: 0, IY: 2, Band: band}, {Level: 2, IX: 1, IY: 2, Band: band}}
	path := func(keys ...tilecache.Key) string {
		var b strings.Builder
		b.WriteString("/patch?")
		for i, k := range keys {
			if i > 0 {
				b.WriteByte('&')
			}
			fmt.Fprintf(&b, "level=%d&ix=%d&iy=%d&band=%d", k.Level, k.IX, k.IY, k.Band)
		}
		return b.String()
	}
	start := func() (*Server, *httptest.Server) {
		s := NewTestServer(t, 33, 0)
		if err := s.Store().DropCaches(); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler(false))
		t.Cleanup(ts.Close)
		return s, ts
	}
	get := func(ts *httptest.Server, path string) ([]byte, uint64, string) {
		t.Helper()
		resp, body := Fetch(t, ts.URL, path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		if n, err := strconv.Atoi(resp.Header.Get("Content-Length")); err != nil || n != len(body) {
			t.Fatalf("GET %s: Content-Length %q for %d bytes", path, resp.Header.Get("Content-Length"), len(body))
		}
		da, err := strconv.ParseUint(resp.Header.Get("X-DM-DA"), 10, 64)
		if err != nil {
			t.Fatalf("GET %s: X-DM-DA %q", path, resp.Header.Get("X-DM-DA"))
		}
		return body, da, resp.Header.Get("X-DM-Cold")
	}

	_, one := start()
	var concat []byte
	var sumDA uint64
	for _, k := range keys {
		body, da, cold := get(one, path(k))
		if cold != "true" {
			t.Fatalf("key %s alone: X-DM-Cold %q on a fresh server", k, cold)
		}
		concat = append(concat, body...)
		sumDA += da
	}
	if sumDA == 0 {
		t.Fatal("cold one-key fetches cost no disk access; the DA sum checks nothing")
	}

	s, multi := start()
	body, da, cold := get(multi, path(keys...))
	if !bytes.Equal(body, concat) {
		t.Errorf("%d-key body (%d B) is not the one-key bodies in request order (%d B)", len(keys), len(body), len(concat))
	}
	if da != sumDA || cold != "true" {
		t.Errorf("%d-key request: X-DM-DA %d, X-DM-Cold %q; the one-key requests summed %d DA, cold", len(keys), da, cold, sumDA)
	}
	if body, da, cold := get(multi, path(keys...)); !bytes.Equal(body, concat) || da != 0 || cold != "false" {
		t.Errorf("warm repeat: %d B, X-DM-DA %d, X-DM-Cold %q; want the same bytes, 0, false", len(body), da, cold)
	}
	reg := s.Registry()
	if req, tiles := reg.Counter("tileserver_patch_requests_total", "").Value(), reg.Counter("tileserver_patch_tiles_total", "").Value(); req != 2 || tiles != 6 {
		t.Errorf("after two 3-key requests: %d requests, %d tiles counted; want 2 and 6", req, tiles)
	}

	var full []tilecache.Key
	for i := 0; i <= MaxPatchKeys; i++ {
		full = append(full, tilecache.Key{Level: 2, IX: i % 4, IY: i / 4, Band: band})
	}
	if resp, b := Fetch(t, multi.URL, path(full[:MaxPatchKeys]...)); resp.StatusCode != http.StatusOK {
		t.Errorf("%d keys, the cap: status %d: %s", MaxPatchKeys, resp.StatusCode, b)
	}
	for _, bad := range []string{
		path(full...), // one key over the cap
		"/patch?level=2&level=2&ix=0&ix=1&iy=0&band=1&band=1",
		"/patch?level=2&ix=0&iy=0&band=1&band=1",
	} {
		if resp, b := Fetch(t, multi.URL, bad); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400: %s", bad, resp.StatusCode, b)
		}
	}
}

// TestPatchColdStampedeOneBody: many clients fetching one cold key via
// /patch cost one materialization, all read byte-identical bodies, and
// the cache ends up holding the patch plus one memoized body — charged
// once, by exactly the body's length. A node driven only through /tile
// memoizes nothing.
func TestPatchColdStampedeOneBody(t *testing.T) {
	s := NewTestServer(t, 33, 0)
	ts := httptest.NewServer(s.Handler(false))
	defer ts.Close()

	tilePath := "/tile?x0=0.1&y0=0.1&x1=0.4&y1=0.4&lod=0.9"
	if resp, body := Fetch(t, ts.URL, tilePath); resp.StatusCode != http.StatusOK {
		t.Fatalf("/tile: status %d: %s", resp.StatusCode, body)
	}
	tileOnly := 0
	for _, st := range s.Cache().TileStats() {
		p, _, err := s.Cache().Patch(st.Key)
		if err != nil {
			t.Fatal(err)
		}
		tileOnly += p.Bytes()
	}
	if got := s.Cache().Stats().Bytes; got != tileOnly {
		t.Fatalf("after /tile only: resident %d bytes, the patches alone estimate %d", got, tileOnly)
	}
	s.Cache().InvalidateAll()
	missesBefore := s.Cache().Stats().Misses

	k := tilecache.Key{Level: 1, IX: 1, IY: 1, Band: len(s.Grid().Ladder()) / 2}
	url := ts.URL + fmt.Sprintf("/patch?level=%d&ix=%d&iy=%d&band=%d", k.Level, k.IX, k.IY, k.Band)
	const n = 12
	bodies := make([][]byte, n)
	cold := make([]bool, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			bodies[i], errs[i] = io.ReadAll(resp.Body)
			cold[i] = resp.Header.Get("X-DM-Cold") == "true"
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	colds := 0
	for i := range bodies {
		if errs[i] != nil {
			t.Fatalf("fetch #%d: %v", i, errs[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("fetch #%d read a different body", i)
		}
		if cold[i] {
			colds++
		}
	}
	st := s.Cache().Stats()
	if misses := st.Misses - missesBefore; colds != 1 || misses != 1 {
		t.Fatalf("%d cold responses, %d materializations; want 1 and 1", colds, misses)
	}
	p, _, err := s.Cache().Patch(k)
	if err != nil {
		t.Fatal(err)
	}
	if want := p.Bytes() + len(bodies[0]); st.Bytes != want {
		t.Fatalf("resident %d bytes, want patch %d + one body %d", st.Bytes, p.Bytes(), len(bodies[0]))
	}
	if _, body := Fetch(t, ts.URL, url[len(ts.URL):]); !bytes.Equal(body, bodies[0]) {
		t.Error("warm fetch served different bytes")
	}
	if got := s.Cache().Stats().Bytes; got != st.Bytes {
		t.Errorf("warm fetch moved resident bytes from %d to %d", st.Bytes, got)
	}
}

// TestHotTilesAndGridInfo checks the shard-facing metadata endpoints:
// /hottiles ranks by hits with deterministic ties, /gridinfo round-trips
// into an identical tilecache.Grid.
func TestHotTilesAndGridInfo(t *testing.T) {
	s, ts := StartTestHarness(t)

	var hot []struct {
		Level int    `json:"level"`
		IX    int    `json:"ix"`
		IY    int    `json:"iy"`
		Band  int    `json:"band"`
		Hits  uint64 `json:"hits"`
	}
	resp, body := Fetch(t, ts.URL, "/hottiles?n=3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/hottiles: status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &hot); err != nil {
		t.Fatalf("/hottiles: %v\n%s", err, body)
	}
	if len(hot) == 0 {
		t.Fatal("/hottiles empty after traffic")
	}
	for i := 1; i < len(hot); i++ {
		if hot[i].Hits > hot[i-1].Hits {
			t.Errorf("/hottiles not sorted by hits: %v", hot)
		}
	}

	var gi struct {
		DataRect [4]float64 `json:"data_rect"`
		MaxLevel int        `json:"max_level"`
		Ladder   []float64  `json:"lod_ladder"`
	}
	if _, body := Fetch(t, ts.URL, "/gridinfo"); json.Unmarshal(body, &gi) != nil {
		t.Fatalf("/gridinfo not JSON: %s", body)
	}
	g := s.Grid()
	if gi.MaxLevel != g.MaxLevel() {
		t.Errorf("gridinfo max level %d, want %d", gi.MaxLevel, g.MaxLevel())
	}
	wantLadder := g.Ladder()
	if len(gi.Ladder) != len(wantLadder) {
		t.Fatalf("gridinfo ladder %v, want %v", gi.Ladder, wantLadder)
	}
	for i := range wantLadder {
		if gi.Ladder[i] != wantLadder[i] {
			t.Fatalf("gridinfo ladder %v, want %v", gi.Ladder, wantLadder)
		}
	}
	dr := g.DataRect()
	if gi.DataRect != [4]float64{dr.MinX, dr.MinY, dr.MaxX, dr.MaxY} {
		t.Errorf("gridinfo data rect %v, want %v", gi.DataRect, dr)
	}
}

// TestGracefulShutdown starts a real listener, parks a request in a slow
// handler region (a cold /tile is plenty), and checks Shutdown blocks
// until the response completes — the drain contract — while new
// connections are refused afterwards.
func TestGracefulShutdown(t *testing.T) {
	s := NewTestServer(t, 33, 0)
	addr, err := s.Start("127.0.0.1:0", false)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr

	// Park one request in-flight, then shut down while it runs.
	done := make(chan error, 1)
	go func() {
		resp, err := http.Get(base + "/tile?x0=0&y0=0&x1=1&y1=1&lod=0.99&nocache=1")
		if err != nil {
			done <- err
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, body)
		}
		if err == nil && len(body) == 0 {
			err = fmt.Errorf("empty body")
		}
		done <- err
	}()
	// Wait until the request is actually inside a handler (or already
	// finished, in which case the drain is trivially satisfied).
	for i := 0; s.inflight.Load() == 0 && len(done) == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}

	// A serving process must probe healthy and ready right up until the
	// drain begins — the orchestration contract /healthz and /readyz exist
	// for.
	for _, probe := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + probe)
		if err != nil {
			t.Fatalf("GET %s while serving: %v", probe, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s while serving: status %d: %s", probe, resp.StatusCode, body)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Shutdown returning means the in-flight request was drained; its
	// response must have been complete and well-formed.
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("in-flight request failed across shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request still pending after Shutdown returned")
	}
	if s.inflight.Load() != 0 {
		t.Errorf("%d requests still tracked in-flight after drain", s.inflight.Load())
	}

	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("server still accepting connections after Shutdown")
	}
	// Idempotent and safe without a live listener.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}
