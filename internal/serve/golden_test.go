package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http/httptest"
	"testing"
)

// goldenBodies pins SHA-256 of the response bodies a fresh highland 33²
// (seed 3) server gives to a fixed request list, captured at the commit
// before the serving pipeline was unified: "response bytes unchanged" is
// checked here, not promised.
var goldenBodies = []struct {
	path   string
	status int
	sha    string
}{
	{"/tile?x0=0.2&y0=0.2&x1=0.6&y1=0.6&lod=0.6", 200, "b270091bb300a7fa469dd5ba091c9bf16c214f430980c43129b5192b4c97b2b5"},
	{"/frame?session=cam1&x0=0.2&y0=0.0&x1=0.7&y1=0.4&near=0.2&far=0.6", 200, "f68f0ef69a43dd88a96f23411694fd5bc42f47340bf32088f2af8905169c660b"},
	{"/frame?session=cam1&x0=0.2&y0=0.1&x1=0.7&y1=0.5&near=0.2&far=0.6", 200, "44b33554833bf25216447d0b2f6fcbd20573021711654f623a40f400a0b0eba3"},
	// Re-pinned when tiles began to keep only the out-pairs whose far
	// endpoint is live at their rung (1 570 -> 988 B), and again when DMTP
	// v3 dropped the triangle section (988 -> 900 B): the one body whose
	// bytes either changes, being the one that ships a tile patch. The ten
	// others, /tile and /stream included, are still the original capture.
	{"/patch?level=1&ix=0&iy=1&band=3", 200, "40cda57303a9b0553246ee594fc08125bbfd88386a89331b9e89cbd9d31f4d53"},
	{"/stream?x0=0.1&y0=0.2&x1=0.8&y1=0.85&lod=0.55", 200, "c4db89d25cb9c5b4b0f8cb1917d9e9730e0151a1cecef1f1ae227959b9cdffe4"},
	{"/hottiles?n=5", 200, "c8e4612bd1aa847c86f1d413b22db51a7c6a2f8f6ea76db62a47d588a34186a3"},
	{"/gridinfo", 200, "dd2348fd431649092caf72a1af86698593c2f85259643ecbfd3be2b5ee04cae2"},
	{"/healthz", 200, "6489d6d7a33c5d40e18fc61eeb6c34c341279ee61816394dde5189aa4ad8fae5"},
	{"/readyz", 200, "682c055ddf7d0afe32b7b2646e1635ab3c83f65884a37aecdc8549e7031a3417"},
	{"/tile?x0=abc", 400, "f69bbfd9ef6f433e12ffd4d82b5bdb30436f0dc2f307d87b9e14a09ff6231ae0"},
	{"/patch?level=99&ix=0&iy=0&band=0", 400, "4a8d3eafb4af6e9fbc1fd25b157d96f80fa5ce12b970b44869d5496b1f465eb8"},
	// Captured at the commit before the mesh bodies stopped going through
	// json.Marshal, as the corners its escaping and empty-collection rules
	// reach: a session name holding <, >, &, ", \, control bytes, DEL,
	// invalid UTF-8, U+2028/9 and a valid two-byte rune; an uncached tile;
	// an ROI between grid points ({} and []). Appended, so /hottiles above
	// still sees the cache it was pinned against.
	{"/frame?session=c%3C%3E%26%22%5C%01%0A%1F%7F%FF%E2%80%A8%E2%80%A9%C3%A9&x0=0.3&y0=0.2&x1=0.8&y1=0.6&near=0.3&far=0.7", 200, "9ebef8fdf0374ca17781a41efb1b00fef7b49c912b3929e51a073d080138fb0e"},
	{"/tile?x0=0.1&y0=0.3&x1=0.5&y1=0.9&lod=0.7&nocache=1", 200, "fbfccc75d98ae579650fdcb537066d8ea773f2c82943da60957686a6051c5fac"},
	{"/tile?x0=0.01&y0=0.01&x1=0.02&y1=0.02&lod=0.5", 200, "f8f989f34f4f72d6cd78ba591b91e46c010c3a16b5f8712f091ae1e2911995d7"},
}

func TestGoldenBodies(t *testing.T) {
	s := NewTestServer(t, 33, 0)
	ts := httptest.NewServer(s.Handler(true))
	defer ts.Close()
	for _, g := range goldenBodies {
		resp, body := Fetch(t, ts.URL, g.path)
		if resp.StatusCode != g.status {
			t.Fatalf("GET %s: status %d, want %d: %s", g.path, resp.StatusCode, g.status, body)
		}
		sum := sha256.Sum256(body)
		if got := hex.EncodeToString(sum[:]); got != g.sha {
			t.Errorf("GET %s: body (%d B) hashes to %s, pinned %s", g.path, len(body), got, g.sha)
		}
	}
}
