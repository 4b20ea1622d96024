package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"dmesh"
	"dmesh/internal/obs"
	"dmesh/internal/storage/faultfs"
	"dmesh/internal/storage/pager"
	"dmesh/internal/stream"
)

// newFaultServer builds a highland 33² server whose store reads all four
// of its files (heap, overflow, r*-tree, id index) through faultfs. The
// pipeline's log line for each request it fails is muted for the test.
func newFaultServer(t *testing.T) (*Server, []*faultfs.Backend) {
	t.Helper()
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	terrain, err := dmesh.Build(dmesh.Config{Dataset: "highland", Size: 33, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var fbs []*faultfs.Backend
	store, err := terrain.NewDMStoreWithPools(dmesh.StorePools{
		WrapBackend: func(b pager.Backend) pager.Backend {
			fb := faultfs.Wrap(b)
			fbs = append(fbs, fb)
			return fb
		}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Terrain: terrain, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	return s, fbs
}

// goCold empties the tile cache and the buffer pool, so the next request
// has to read pages.
func goCold(t *testing.T, s *Server) {
	t.Helper()
	s.Cache().InvalidateAll()
	if err := s.Store().DropCaches(); err != nil {
		t.Fatal(err)
	}
}

// streamCut reports whether a /stream body stops before its last batch.
func streamCut(body []byte) bool {
	dec := stream.NewDecoder()
	if err := dec.Attach(bytes.NewReader(body)); err != nil {
		return true
	}
	for !dec.Done() {
		if _, _, err := dec.Next(); err != nil {
			return true
		}
	}
	return false
}

// scrape parses the server's /metrics page.
func scrape(t *testing.T, baseURL string) *obs.PromSnapshot {
	t.Helper()
	_, body := Fetch(t, baseURL, "/metrics")
	snap, err := obs.ParsePrometheus(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestRouteErrors is the one table over the route table: every query
// route × {malformed parameter, out-of-range percentile or key, non-finite
// coordinate or percentile, injected read fault} fails the same way,
// because one pipeline answers them all, and the server answers a plain
// /tile after them all. A route added to the table without cases here
// fails the test.
func TestRouteErrors(t *testing.T) {
	const roi = "x0=0.1&y0=0.1&x1=0.8&y1=0.8"
	cases := map[string][]struct {
		path   string
		status int  // 200 is a stream cut after its header went out
		fault  bool // every store read fails
		ran    bool // got past parse: fault cases, and a key only the cache can reject
	}{
		"tile": {
			{"/tile?x0=abc", 400, false, false},
			{"/tile?lod=1.5", 400, false, false},
			{"/tile?lod=NaN", 400, false, false},
			{"/tile?lod=NaN&nocache=1", 400, false, false},
			{"/tile?x0=NaN", 400, false, false},
			{"/tile?x0=-Inf&x1=Inf", 400, false, false},
			{"/tile?lod=0.5&" + roi, 500, true, true},
			{"/tile?nocache=1&lod=0.5&" + roi, 500, true, true},
		},
		"frame": {
			{"/frame?near=0.5", 400, false, false}, // no session
			{"/frame?session=c&near=x", 400, false, false},
			{"/frame?session=c&far=2", 400, false, false},
			{"/frame?session=c&near=NaN", 400, false, false},
			{"/frame?session=c&y1=%2BInf", 400, false, false},
			{"/frame?session=c&near=0.6&far=0.2&" + roi, 400, false, false}, // inverted plane
			{"/frame?session=c&near=0.2&far=0.6&" + roi, 500, true, true},
		},
		"patch": {
			{"/patch?level=x", 400, false, false},
			{"/patch?level=99&ix=0&iy=0&band=0", 400, false, true}, // tilecache.ErrInvalidKey
			{"/patch?level=1&ix=0&iy=1&band=3", 500, true, true},
		},
		"stream": {
			{"/stream?x0=abc", 400, false, false},
			{"/stream?lod=1.5", 400, false, false},
			{"/stream?resume=99", 400, false, false},
			{"/stream?lod=NaN", 400, false, false},
			{"/stream?y0=-Inf", 400, false, false},
			{"/stream?lod=0.5&" + roi, 200, true, true},
		},
	}
	s, fbs := newFaultServer(t)
	ts := httptest.NewServer(s.Handler(true))
	defer ts.Close()
	for _, rt := range routes {
		if len(cases[rt.name]) == 0 {
			t.Errorf("route %s has no error cases", rt.path)
		}
		for _, c := range cases[rt.name] {
			if c.fault {
				goCold(t, s)
				for _, fb := range fbs {
					fb.SetSchedule(faultfs.Read, faultfs.Schedule{Every: 1})
				}
			}
			before := scrape(t, ts.URL)
			resp, body := Fetch(t, ts.URL, c.path)
			after := scrape(t, ts.URL)
			for _, fb := range fbs {
				fb.Heal()
			}

			if resp.StatusCode != c.status {
				t.Errorf("GET %s: status %d, want %d: %s", c.path, resp.StatusCode, c.status, body)
				continue
			}
			if c.status == http.StatusOK {
				if !streamCut(body) {
					t.Errorf("GET %s: stream decoded to its end under a read fault", c.path)
				}
			} else {
				var e struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
					t.Errorf("GET %s: body is not {\"error\":…}: %s", c.path, body)
				}
				if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
					t.Errorf("GET %s: Content-Length %q, body is %d bytes", c.path, cl, len(body))
				}
			}
			if h := resp.Header.Get("X-DM-Trace") + resp.Trailer.Get("X-DM-Trace"); h != "" {
				t.Errorf("GET %s: untraced request carried X-DM-Trace", c.path)
			}
			grew := func(name string) int64 {
				b, a := before.Metrics[name], after.Metrics[name]
				return a.Value + int64(a.Count) - b.Value - int64(b.Count)
			}
			if n := grew("tileserver_request_errors_total"); n != 1 {
				t.Errorf("GET %s: error counter moved by %d, want 1", c.path, n)
			}
			if n := grew("tileserver_" + rt.name + "_latency_nanos"); n != 1 {
				t.Errorf("GET %s: latency histogram gained %d observations, want 1", c.path, n)
			}
			if n := grew("tileserver_" + rt.name + "_requests_total"); n != 0 {
				t.Errorf("GET %s: counted as served", c.path)
			}
			// Only a request that got as far as running is in the DA
			// histogram, with the pages it read before failing in the sum.
			da := "tileserver_" + rt.name + "_disk_accesses"
			ran := int64(0)
			if c.ran {
				ran = 1
			}
			if n := grew(da); n != ran {
				t.Errorf("GET %s: DA histogram gained %d observations, want %d", c.path, n, ran)
			}
			if c.fault && after.Metrics[da].Sum == before.Metrics[da].Sum {
				t.Errorf("GET %s: the pages the failed request read were not accounted", c.path)
			}
		}
	}
	if resp, body := Fetch(t, ts.URL, "/tile?lod=0.5&"+roi); resp.StatusCode != http.StatusOK {
		t.Errorf("plain /tile after the error cases: status %d: %s", resp.StatusCode, body)
	}
}

// TestFaultScheduleAccounting is the accounting property: over a mixed
// script against a store whose seeded schedule fails some reads, every
// disk access the store performed is attributed to exactly one endpoint
// (Σ of the four tileserver_*_disk_accesses sums == the growth of the
// store's own read count — the reconciliation tileserver_store_disk_accesses
// lets an operator do from /metrics), and every request that was not
// served is an error (tileserver_request_errors_total == non-200
// responses + cut streams). A failed /frame — once the only endpoint that
// kept its pages — is one row of the script.
func TestFaultScheduleAccounting(t *testing.T) {
	s, fbs := newFaultServer(t)
	ts := httptest.NewServer(s.Handler(true))
	defer ts.Close()

	var script []string
	for i := 0; i < 10; i++ {
		x, y := 0.05*float64(i%4), 0.04*float64(i%5)
		roi := fmt.Sprintf("x0=%g&y0=%g&x1=%g&y1=%g", x, y, x+0.5, y+0.45)
		script = append(script,
			"/tile?lod=0.6&"+roi,
			"/tile?nocache=1&lod=0.7&"+roi,
			fmt.Sprintf("/patch?level=1&ix=%d&iy=%d&band=%d", i%2, (i/2)%2, i%4),
			"/frame?session=cam&near=0.2&far=0.6&"+roi,
			"/stream?lod=0.55&"+roi,
		)
	}
	goCold(t, s)
	// 3 % of reads: at the 2 % this ran at while records were fixed-size,
	// the packed store's half as many page reads left /frame unfailed.
	for i, fb := range fbs {
		fb.SetSchedule(faultfs.Read, faultfs.Schedule{Rate: 0.03, Seed: int64(7 + i)})
	}
	storeBefore := s.Store().DiskAccesses()

	sent, failed := map[string]int{}, map[string]int{}
	notServed := 0
	for _, path := range script {
		goCold(t, s) // keep the store reading: 33² fits the pool whole
		resp, body := Fetch(t, ts.URL, path)
		name := path[1:strings.IndexByte(path, '?')]
		sent[name]++
		if resp.StatusCode != http.StatusOK || name == "stream" && streamCut(body) {
			notServed++
			failed[name]++
		}
	}
	t.Logf("failed %v of %v", failed, sent)
	for _, rt := range routes {
		if failed[rt.name] == 0 || failed[rt.name] == sent[rt.name] {
			t.Fatalf("%d of %d %s requests failed: the schedule must fail some of every route, not all",
				failed[rt.name], sent[rt.name], rt.path)
		}
	}

	snap := scrape(t, ts.URL)
	var sum uint64
	for _, rt := range routes {
		sum += snap.Metrics["tileserver_"+rt.name+"_disk_accesses"].Sum
	}
	if grown := s.Store().DiskAccesses() - storeBefore; sum != grown {
		t.Errorf("endpoints account for %d disk accesses, the store performed %d", sum, grown)
	}
	if got := snap.Metrics["tileserver_store_disk_accesses"].Value; got != int64(s.Store().DiskAccesses()) {
		t.Errorf("tileserver_store_disk_accesses = %d, store says %d", got, s.Store().DiskAccesses())
	}
	if got := snap.Metrics["tileserver_request_errors_total"].Value; got != int64(notServed) {
		t.Errorf("tileserver_request_errors_total = %d, %d requests were not served", got, notServed)
	}
}

// TestListenerDeadlines: a shard's listener gives a client that never
// finishes its request head the header timeout and no longer, and puts
// no deadline on a well-formed request read slowly — /stream is long by
// design.
func TestListenerDeadlines(t *testing.T) {
	s := NewTestServer(t, 33, 0)
	s.headerTimeout = 200 * time.Millisecond
	addr, err := s.Start("127.0.0.1:0", false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HT"); err != nil {
		t.Fatal(err)
	}
	// net/http answers an unfinished head with a bare 400 and closes; the
	// close is what matters, so read to it.
	start := time.Now()
	conn.SetReadDeadline(start.Add(10 * time.Second))
	if reply, err := io.ReadAll(conn); err != nil {
		t.Fatalf("half a request line: after %q the server did not hang up: %v", reply, err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("server held a headerless connection for %v", waited)
	}

	resp, err := http.Get("http://" + addr + "/stream?x0=0.1&y0=0.2&x1=0.8&y1=0.85&lod=0.55")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body []byte
	for chunk := make([]byte, 2048); ; {
		time.Sleep(s.headerTimeout / 2) // six reads: three header timeouts
		n, err := resp.Body.Read(chunk)
		body = append(body, chunk[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("slow stream read cut after %d bytes: %v", len(body), err)
		}
	}
	if streamCut(body) {
		t.Errorf("slowly read stream (%d bytes) does not decode to its end", len(body))
	}
}

// TestRoutesDocumented is the drift guard between the mux and the docs:
// the paths Handler(true) mounts are exactly the paths DESIGN.md's
// endpoint table lists. Candidates are every path literal in the
// sources that mount handlers, plus the table's own rows, so a new
// endpoint cannot be mounted undocumented nor a documented one dropped.
func TestRoutesDocumented(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `(/[a-z/]+)").FindAllSubmatch(design, -1) {
		documented[string(m[1])] = true
	}
	if len(documented) == 0 {
		t.Fatal("DESIGN.md has no endpoint table")
	}
	candidates := map[string]bool{"/stats": true, "/cachestats": true, "/debug/vars": true}
	for p := range documented {
		candidates[p] = true
	}
	for _, file := range []string{"server.go", "routes.go", "../obs/http.go"} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range regexp.MustCompile(`"(/[a-z/]+)"`).FindAllSubmatch(src, -1) {
			p := string(m[1])
			if strings.HasPrefix(p, "/debug/pprof/") {
				p = "/debug/pprof/" // one row for the suite; its profile endpoints block for seconds
			}
			candidates[p] = true
		}
	}
	s := NewTestServer(t, 33, 0)
	ts := httptest.NewServer(s.Handler(true))
	defer ts.Close()
	for p := range candidates {
		resp, _ := Fetch(t, ts.URL, p)
		if mounted := resp.StatusCode != http.StatusNotFound; mounted != documented[p] {
			t.Errorf("%s: mounted=%t, in DESIGN.md's endpoint table=%t", p, mounted, documented[p])
		}
	}
}

// TestCacheSeriesDocumented is the same guard for the tile cache's
// series: README.md's Telemetry table lists exactly the tileserver_cache_*
// series /metrics carries.
func TestCacheSeriesDocumented(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `(tileserver_cache_[a-z_]+)`").FindAllSubmatch(readme, -1) {
		documented[string(m[1])] = true
	}
	s := NewTestServer(t, 33, 0)
	ts := httptest.NewServer(s.Handler(true))
	defer ts.Close()
	_, body := Fetch(t, ts.URL, "/metrics")
	served := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^(tileserver_cache_[a-z_]+) ").FindAllSubmatch(body, -1) {
		served[string(m[1])] = true
	}
	if len(served) == 0 {
		t.Fatal("/metrics carries no tileserver_cache_* series")
	}
	for name := range served {
		if !documented[name] {
			t.Errorf("%s is on /metrics and not in README.md's Telemetry table", name)
		}
	}
	for name := range documented {
		if !served[name] {
			t.Errorf("%s is in README.md's Telemetry table and not on /metrics", name)
		}
	}
}
