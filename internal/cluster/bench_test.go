package cluster_test

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"dmesh"
	"dmesh/internal/cluster"
	"dmesh/internal/geom"
	"dmesh/internal/stream"
)

// byteCounter sums the declared lengths of the responses its client reads
// (every /patch body declares one).
type byteCounter struct {
	base  *http.Transport
	bytes atomic.Int64
}

func (c *byteCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(r)
	if err == nil {
		c.bytes.Add(resp.ContentLength)
	}
	return resp, err
}

// routerBench is the repository benchmark's hot_patch and
// progressive_stream shape, scaled to one ROI: highland 257² (seed 1), a
// 2-shard StartLocal cluster, a 0.2-side ROI at the 95th LOD percentile
// for a query and the 80th (six batches) for a stream, the shards' tile
// caches warm for both. Built once per test binary and left running.
type routerFix struct {
	once   sync.Once
	rt     *cluster.Router
	wire   *byteCounter
	roi    geom.Rect
	eQ, eS float64
	err    error
}

var routerBench routerFix

func routerFixture(b *testing.B) *routerFix {
	b.Helper()
	f := &routerBench
	f.once.Do(func() {
		tr, err := dmesh.Build(dmesh.Config{Dataset: "highland", Size: 257, Seed: 1})
		if err != nil {
			f.err = err
			return
		}
		lc, err := cluster.StartLocal(cluster.LocalConfig{Terrain: tr, Shards: 2})
		if err != nil {
			f.err = err
			return
		}
		urls := make([]string, len(lc.HTTP))
		for i, ts := range lc.HTTP {
			urls[i] = ts.URL
		}
		base := http.DefaultTransport.(*http.Transport).Clone()
		base.MaxIdleConns, base.MaxIdleConnsPerHost = 256, 64
		f.wire = &byteCounter{base: base}
		f.rt, f.err = cluster.NewRouter(cluster.Config{
			Shards: urls, IDs: lc.Router.Ring().IDs(), Grid: lc.Router.Grid(),
			Client: &http.Client{Transport: f.wire},
		})
		f.roi = geom.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.5, MaxY: 0.5}
		f.eQ, f.eS = tr.LODPercentile(0.95), tr.LODPercentile(0.80)
		if f.err == nil {
			_, _, f.err = f.rt.Query(f.roi, f.eQ)
		}
		if f.err == nil {
			_, _, f.err = f.rt.StreamTraced(f.roi, f.eS, -1, io.Discard, nil)
		}
	})
	if f.err != nil {
		b.Fatal(f.err)
	}
	return f
}

// BenchmarkRouterQuery is one warm fan-out query: a /patch fetch per tile,
// their decode and the stitch. wireB/vertex is the /patch bytes read per
// vertex of the answer.
func BenchmarkRouterQuery(b *testing.B) {
	f := routerFixture(b)
	b.ReportAllocs()
	f.wire.bytes.Store(0)
	verts := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := f.rt.Query(f.roi, f.eQ)
		if err != nil {
			b.Fatal(err)
		}
		verts += len(res.Vertices)
	}
	b.ReportMetric(float64(f.wire.bytes.Load())/float64(verts), "wireB/vertex")
}

// BenchmarkRouterStream is one warm six-batch progressive stream read to
// the exact mesh, as the repository benchmark's progressive_stream op is:
// six fan-outs, stitches and batch encodings written into an io.Pipe, and
// a client-side stream.Decoder applying every batch at the other end.
// wireB/vertex is the /patch bytes of all six rungs per vertex of the
// final mesh.
func BenchmarkRouterStream(b *testing.B) {
	f := routerFixture(b)
	b.ReportAllocs()
	f.wire.bytes.Store(0)
	verts := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr, pw := io.Pipe()
		done := make(chan error, 1)
		go func() {
			_, st, err := f.rt.StreamTraced(f.roi, f.eS, -1, pw, nil)
			if err == nil && st.Batches != 6 {
				err = fmt.Errorf("%d batches, want 6", st.Batches)
			}
			pw.CloseWithError(err)
			done <- err
		}()
		dec := stream.NewDecoder()
		err := dec.Attach(pr)
		for err == nil && !dec.Done() {
			_, _, err = dec.Next()
		}
		pr.Close() // unblocks the writer if the decoder gave up early
		if serr := <-done; serr != nil {
			b.Fatal(serr)
		}
		if err != nil {
			b.Fatal(err)
		}
		verts += len(dec.Mesh().Vertices)
	}
	b.ReportMetric(float64(f.wire.bytes.Load())/float64(verts), "wireB/vertex")
}
