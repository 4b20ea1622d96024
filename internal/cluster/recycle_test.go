package cluster_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"testing"

	"dmesh/internal/geom"
)

// TestRouterResultsOutliveRecycledPatches: the router decodes every tile
// into a pooled patch and the stream encoder works in pooled buffers, all
// handed back when the request returns — so a Result must share no memory
// with either. A query's and a stream's answers, recorded as canonical
// bytes, must read the same after fifty more queries and streams over
// other ROIs and bands have recycled that memory many times over.
func TestRouterResultsOutliveRecycledPatches(t *testing.T) {
	tr := terrain(t, "highland")
	lc := startLocal(t, tr, 2)
	ladder := lc.Router.Grid().Ladder()
	roi := geom.Rect{MinX: 0.1, MinY: 0.15, MaxX: 0.7, MaxY: 0.8}

	q, _, err := lc.Router.Query(roi, ladder[1])
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := lc.Router.StreamTraced(roi, ladder[0], -1, io.Discard, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantQ, wantS := canonicalMesh(q), canonicalMesh(s)

	rng := rand.New(rand.NewSource(61))
	for _, r := range randRects(rng, 50) {
		if _, _, err := lc.Router.Query(r, ladder[rng.Intn(len(ladder))]); err != nil {
			t.Fatal(err)
		}
		if _, _, err := lc.Router.StreamTraced(r, ladder[rng.Intn(len(ladder))], -1, io.Discard, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(canonicalMesh(q), wantQ) {
		t.Error("a Query result changed after later requests recycled its patches")
	}
	if !bytes.Equal(canonicalMesh(s), wantS) {
		t.Error("a Stream result changed after later requests recycled its patches and buffers")
	}
}

// TestConcurrentStreamsMatchSerial: eight goroutines stream distinct ROIs
// at once, each through Router.StreamTraced and through a shard's /stream, so
// that patches, stitch scratch and encoder buffers pass between requests
// in flight. Every body must be byte-identical to the ROI's stream taken
// serially before.
func TestConcurrentStreamsMatchSerial(t *testing.T) {
	tr := terrain(t, "highland")
	lc := startLocal(t, tr, 2)
	rng := rand.New(rand.NewSource(67))
	rois := randRects(rng, 8)
	pcts := []float64{0.5, 0.7, 0.8, 0.9, 0.95, 0.97, 0.99, 0.85}
	want := make([][]byte, len(rois))
	for i, r := range rois {
		var body bytes.Buffer
		if _, _, err := lc.Router.StreamTraced(r, tr.LODPercentile(pcts[i]), -1, &body, nil); err != nil {
			t.Fatal(err)
		}
		want[i] = body.Bytes()
	}

	var wg sync.WaitGroup
	for i, r := range rois {
		wg.Add(1)
		go func() {
			defer wg.Done()
			url := fmt.Sprintf("%s/stream?x0=%g&y0=%g&x1=%g&y1=%g&lod=%g",
				lc.HTTP[i%len(lc.HTTP)].URL, r.MinX, r.MinY, r.MaxX, r.MaxY, pcts[i])
			for round := 0; round < 3; round++ {
				var body bytes.Buffer
				if _, _, err := lc.Router.StreamTraced(r, tr.LODPercentile(pcts[i]), -1, &body, nil); err != nil {
					t.Errorf("ROI %d: Router.StreamTraced: %v", i, err)
					return
				}
				if !bytes.Equal(body.Bytes(), want[i]) {
					t.Errorf("ROI %d round %d: Router.StreamTraced body (%d B) differs from the serial one (%d B)",
						i, round, body.Len(), len(want[i]))
				}
				resp, err := http.Get(url)
				if err != nil {
					t.Errorf("ROI %d: /stream: %v", i, err)
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("ROI %d: /stream: status %d, %v", i, resp.StatusCode, err)
					return
				}
				if !bytes.Equal(got, want[i]) {
					t.Errorf("ROI %d round %d: /stream body (%d B) differs from the serial one (%d B)",
						i, round, len(got), len(want[i]))
				}
			}
		}()
	}
	wg.Wait()
}
