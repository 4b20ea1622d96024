package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"dmesh/internal/dm"
	"dmesh/internal/geom"
	"dmesh/internal/stream"
	"dmesh/internal/tilecache"
)

// expectedStream rebuilds, through the server's own cache, the exact
// stream the /stream endpoint should serve for (roi, pct) — the codec is
// deterministic, so the HTTP body must be byte-identical.
func expectedStream(t *testing.T, s *Server, roi geom.Rect, pct float64) *stream.Stream {
	t.Helper()
	band, _ := s.Cache().Grid().SnapE(s.terrain.LODPercentile(pct))
	levels, err := stream.LevelsFor(s.Cache().Grid().Ladder(), band)
	if err != nil {
		t.Fatal(err)
	}
	meshes := make([]*dm.Result, 0, len(levels))
	for _, e := range levels {
		res, _, err := s.Cache().Query(roi, e)
		if err != nil {
			t.Fatal(err)
		}
		meshes = append(meshes, res)
	}
	st, err := stream.Encode(roi, levels, meshes)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStreamEndpoint: the full /stream body decodes batch by batch into
// exactly the direct query answer at the snapped LOD, and is
// byte-identical to a locally encoded stream over the same cache.
func TestStreamEndpoint(t *testing.T) {
	s := NewTestServer(t, 33, 0)
	ts := httptest.NewServer(s.Handler(false))
	defer ts.Close()

	roi := geom.Rect{MinX: 0.2, MinY: 0.15, MaxX: 0.75, MaxY: 0.7}
	const pct = 0.9
	want := expectedStream(t, s, roi, pct)

	path := fmt.Sprintf("/stream?x0=%g&y0=%g&x1=%g&y1=%g&lod=%g", roi.MinX, roi.MinY, roi.MaxX, roi.MaxY, pct)
	resp, body := Fetch(t, ts.URL, path)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("content type %q", ct)
	}
	if nb := resp.Header.Get("X-DM-Batches"); nb != strconv.Itoa(len(want.Frames)) {
		t.Errorf("X-DM-Batches = %q, want %d", nb, len(want.Frames))
	}

	var wantBody bytes.Buffer
	if _, err := want.WriteTo(&wantBody, -1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, wantBody.Bytes()) {
		t.Fatalf("/stream body (%d B) differs from local encoding (%d B)", len(body), wantBody.Len())
	}

	dec := stream.NewDecoder()
	if err := dec.Attach(bytes.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	for !dec.Done() {
		if _, _, err := dec.Next(); err != nil {
			t.Fatal(err)
		}
	}
	_, snapped := s.Cache().Grid().SnapE(s.terrain.LODPercentile(pct))
	direct, err := s.Store().ViewpointIndependent(roi, snapped)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dm.CanonicalMesh(dec.Mesh()), dm.CanonicalMesh(direct)) {
		t.Fatal("streamed mesh differs from the direct query answer")
	}

	if served := s.Registry().Counter("tileserver_stream_requests_total", "").Value(); served != 1 {
		t.Errorf("tileserver_stream_requests_total = %d, want 1", served)
	}
}

// TestStreamResume: a resume=k response must be exactly the header plus
// the frames after k, and a decoder cut mid-stream must complete through
// a second request at resume=LastApplied().
func TestStreamResume(t *testing.T) {
	s := NewTestServer(t, 33, 0)
	ts := httptest.NewServer(s.Handler(false))
	defer ts.Close()

	roi := geom.Rect{MinX: 0.1, MinY: 0.2, MaxX: 0.8, MaxY: 0.85}
	const pct = 0.55 // deep target: several batches
	want := expectedStream(t, s, roi, pct)
	if len(want.Frames) < 3 {
		t.Fatalf("test wants >= 3 batches, got %d", len(want.Frames))
	}
	base := fmt.Sprintf("/stream?x0=%g&y0=%g&x1=%g&y1=%g&lod=%g", roi.MinX, roi.MinY, roi.MaxX, roi.MaxY, pct)

	for k := -1; k < len(want.Frames); k++ {
		resp, body := Fetch(t, ts.URL, fmt.Sprintf("%s&resume=%d", base, k))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("resume=%d: status %d: %s", k, resp.StatusCode, body)
		}
		var wantBody bytes.Buffer
		if _, err := want.WriteTo(&wantBody, k); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, wantBody.Bytes()) {
			t.Fatalf("resume=%d body (%d B) differs from header+frames[%d:] (%d B)",
				k, len(body), k+1, wantBody.Len())
		}
	}

	// A client cut mid-transfer: decode a prefix of the full body that
	// ends inside frame 2, then complete over a resumed request.
	_, full := Fetch(t, ts.URL, base)
	cut := len(want.Header) + len(want.Frames[0]) + len(want.Frames[1]) + len(want.Frames[2])/2
	dec := stream.NewDecoder()
	if err := dec.Attach(bytes.NewReader(full[:cut])); err != nil {
		t.Fatal(err)
	}
	for {
		if _, _, err := dec.Next(); err != nil {
			if !errors.Is(err, stream.ErrTruncated) {
				t.Fatalf("cut decode: %v, want ErrTruncated", err)
			}
			break
		}
	}
	if dec.LastApplied() != 1 {
		t.Fatalf("LastApplied after cut = %d, want 1", dec.LastApplied())
	}
	resp, err := http.Get(ts.URL + fmt.Sprintf("%s&resume=%d", base, dec.LastApplied()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := dec.Attach(resp.Body); err != nil {
		t.Fatal(err)
	}
	for !dec.Done() {
		if _, _, err := dec.Next(); err != nil {
			t.Fatalf("resumed decode: %v", err)
		}
	}
	_, snapped := s.Cache().Grid().SnapE(s.terrain.LODPercentile(pct))
	direct, derr := s.Store().ViewpointIndependent(roi, snapped)
	if derr != nil {
		t.Fatal(derr)
	}
	if !bytes.Equal(dm.CanonicalMesh(dec.Mesh()), dm.CanonicalMesh(direct)) {
		t.Fatal("two-request stream decodes a different mesh than the direct query")
	}
}

// TestStreamBadParams pins the endpoint's 400 surface.
func TestStreamBadParams(t *testing.T) {
	s := NewTestServer(t, 17, 0)
	ts := httptest.NewServer(s.Handler(false))
	defer ts.Close()
	for _, path := range []string{
		"/stream?lod=1.5",
		"/stream?lod=-0.1",
		"/stream?x0=abc",
		"/stream?resume=99",
		"/stream?resume=-2",
	} {
		resp, body := Fetch(t, ts.URL, path)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400: %s", path, resp.StatusCode, body)
		}
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			t.Errorf("GET %s: Content-Length %q, body is %d bytes", path, cl, len(body))
		}
	}
}

// TestContentLengthDeclared is the regression for the truncation-safety
// bugfix: every fixed-size response — the binary /patch body, every JSON
// endpoint, and JSON errors — must declare Content-Length matching the
// body, so a connection cut mid-body surfaces to clients as a short read
// instead of a clean-looking truncated 200.
func TestContentLengthDeclared(t *testing.T) {
	s, ts := StartTestHarness(t)

	k := tilecache.Key{Level: 1, IX: 0, IY: 1, Band: len(s.Grid().Ladder()) / 2}
	paths := []string{
		fmt.Sprintf("/patch?level=%d&ix=%d&iy=%d&band=%d", k.Level, k.IX, k.IY, k.Band),
		"/tile?x0=0.2&y0=0.2&x1=0.6&y1=0.6&lod=0.9",
		"/frame?session=cl&x0=0.2&y0=0.0&x1=0.7&y1=0.4&near=0.75&far=0.99",
		"/hottiles?n=5",
		"/gridinfo",
		"/slowlog?n=5",
		"/metrics",
		"/healthz",
		"/readyz",
		"/patch?level=99&ix=0&iy=0&band=0", // a jsonError response
		"/tile?x0=abc",                     // another
	}
	for _, path := range paths {
		resp, body := Fetch(t, ts.URL, path)
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			t.Errorf("GET %s: Content-Length %q, body is %d bytes", path, cl, len(body))
		}
	}

	// And the transport-level check the declaration buys: a body cut
	// below the declared length must surface as an error, not EOF-as-OK.
	resp, err := http.Get(ts.URL + paths[0])
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.ContentLength <= 0 {
		t.Fatalf("patch ContentLength = %d, want positive", resp.ContentLength)
	}
	half := make([]byte, resp.ContentLength/2)
	if _, err := io.ReadFull(resp.Body, half); err != nil {
		t.Fatal(err)
	}
}
