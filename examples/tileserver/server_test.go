package main

import (
	"encoding/json"
	"strings"
	"testing"

	"dmesh/internal/serve"
)

// The serving behavior itself (obs smoke, metrics determinism,
// introspection opt-out, patch wire endpoint, graceful drain) is tested
// where the code now lives, in internal/serve, on the same shared
// harness. This smoke test only checks the example's deployment shape:
// the extracted core wired up the way main() does it still answers the
// canonical traffic mix.
func TestExampleServesExtractedCore(t *testing.T) {
	_, ts := serve.StartTestHarness(t)

	resp, body := serve.Fetch(t, ts.URL, "/tile?x0=0.2&y0=0.2&x1=0.6&y1=0.6&lod=0.9")
	if resp.StatusCode != 200 {
		t.Fatalf("/tile: status %d", resp.StatusCode)
	}
	var tile struct {
		LOD       float64               `json:"lod"`
		Vertices  map[string][3]float64 `json:"vertices"`
		Triangles [][3]int64            `json:"triangles"`
	}
	if err := json.Unmarshal(body, &tile); err != nil {
		t.Fatalf("/tile not JSON: %v", err)
	}
	if len(tile.Vertices) == 0 || len(tile.Triangles) == 0 {
		t.Fatal("/tile answered an empty mesh")
	}

	resp, body = serve.Fetch(t, ts.URL, "/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	// The harness served three tiles before this test's own.
	if want := "tileserver_tile_requests_total 4\n"; !strings.Contains(string(body), want) {
		t.Errorf("/metrics missing %q", want)
	}
}
