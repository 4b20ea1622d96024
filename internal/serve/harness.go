package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dmesh"
)

// This file is the shared test harness for every consumer of the serving
// core — the serve package's own tests, the examples/tileserver smoke
// test, and the cluster tests — so the canonical traffic mix and fetch
// helpers live in exactly one place. It ships in the package proper
// (like net/http/httptest does) because test files cannot be imported
// across packages.

// NewTestServer builds a small server for tests: a size x size highland
// terrain (seed 3, matching the example binary) with the given slow-log
// admission threshold. Threshold 0 admits every request.
func NewTestServer(tb testing.TB, size int, slowThreshold time.Duration) *Server {
	tb.Helper()
	terrain, err := dmesh.Build(dmesh.Config{Dataset: "highland", Size: size, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	s, err := New(Config{Terrain: terrain, SlowThreshold: slowThreshold})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// StartTestHarness builds a small server, drives enough traffic through
// every endpoint flavor to populate the telemetry (3 tile requests — one
// a cache hit, one uncached — and 2 coherent frames on one camera), and
// hands back the httptest front end.
func StartTestHarness(tb testing.TB) (*Server, *httptest.Server) {
	tb.Helper()
	s := NewTestServer(tb, 33, 0)
	ts := httptest.NewServer(s.Handler(true))
	tb.Cleanup(ts.Close)

	get := func(path string) {
		tb.Helper()
		if resp, body := Fetch(tb, ts.URL, path); resp.StatusCode != http.StatusOK {
			tb.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
	}
	get("/tile?x0=0.2&y0=0.2&x1=0.6&y1=0.6&lod=0.9")
	get("/tile?x0=0.2&y0=0.2&x1=0.6&y1=0.6&lod=0.9") // cache hit
	get("/tile?x0=0.1&y0=0.1&x1=0.5&y1=0.5&lod=0.9&nocache=1")
	get("/frame?session=cam1&x0=0.2&y0=0.0&x1=0.7&y1=0.4&near=0.75&far=0.99")
	get("/frame?session=cam1&x0=0.2&y0=0.1&x1=0.7&y1=0.5&near=0.75&far=0.99")
	return s, ts
}

// Fetch GETs baseURL+path and returns the response with its full body
// read and closed.
func Fetch(tb testing.TB, baseURL, path string) (*http.Response, []byte) {
	tb.Helper()
	resp, err := http.Get(baseURL + path)
	if err != nil {
		tb.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		tb.Fatal(err)
	}
	return resp, body
}
