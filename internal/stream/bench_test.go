package stream_test

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"dmesh"
	"dmesh/internal/dm"
	"dmesh/internal/geom"
	"dmesh/internal/stream"
)

// rungSet is one progressive answer's input: the schedule and the direct
// answer at each of its rungs.
type rungSet struct {
	roi    geom.Rect
	levels []float64
	meshes []*dm.Result
}

func (rs rungSet) encode(tb testing.TB) *stream.Stream {
	st, err := stream.Encode(rs.roi, rs.levels, rs.meshes)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

var (
	benchOnce  sync.Once
	benchRungs []rungSet // small ROI, then large
)

// benchFixture answers two ROIs at the repository benchmark's
// progressive_stream shape — LOD percentile 0.80, which the default
// ladder turns into six rungs — on a 129-point terrain: a 0.15-side ROI
// and a 0.4-side one, the second holding about as many vertices as the
// benchmark's 0.2-side ROI on its 257-point terrain and several times
// the first's.
func benchFixture(tb testing.TB) []rungSet {
	benchOnce.Do(func() {
		tr, err := dmesh.Build(dmesh.Config{Dataset: "highland", Size: 129, Seed: 7})
		if err != nil {
			tb.Fatal(err)
		}
		store, err := tr.NewDMStore()
		if err != nil {
			tb.Fatal(err)
		}
		ladder := tr.DefaultLODLadder()
		band := 0
		for band+1 < len(ladder) && ladder[band+1] <= tr.LODPercentile(0.80) {
			band++
		}
		levels, err := stream.LevelsFor(ladder, band)
		if err != nil {
			tb.Fatal(err)
		}
		for _, side := range []float64{0.15, 0.4} {
			rs := rungSet{roi: geom.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.3 + side, MaxY: 0.3 + side}, levels: levels}
			for _, e := range levels {
				res, err := store.ViewpointIndependent(rs.roi, e)
				if err != nil {
					tb.Fatal(err)
				}
				rs.meshes = append(rs.meshes, res)
			}
			benchRungs = append(benchRungs, rs)
		}
	})
	if len(benchRungs) != 2 {
		tb.Fatal("benchmark fixture failed to build")
	}
	if n := len(benchRungs[1].levels); n != 6 {
		tb.Fatalf("p80 schedule has %d rungs, want 6", n)
	}
	return benchRungs
}

// BenchmarkStreamEncode is one whole progressive answer through the
// encoder: six EncodeNext calls on resident rung answers.
func BenchmarkStreamEncode(b *testing.B) {
	rs := benchFixture(b)[1]
	b.ReportAllocs()
	b.ResetTimer()
	var total int
	for i := 0; i < b.N; i++ {
		total = rs.encode(b).BytesToExact()
	}
	b.ReportMetric(float64(total), "wire-B/op")
	b.ReportMetric(float64(len(rs.meshes[len(rs.meshes)-1].Vertices)), "vertices")
}

// BenchmarkStreamDecode is the client's side of the same answer: Attach,
// six Next calls, and the one Mesh() a client that wants the exact answer
// makes.
func BenchmarkStreamDecode(b *testing.B) {
	rs := benchFixture(b)[1]
	body := flatten(rs.encode(b))
	b.ReportAllocs()
	b.ResetTimer()
	var mesh *dm.Result
	for i := 0; i < b.N; i++ {
		dec := stream.NewDecoder()
		if err := dec.Attach(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
		for !dec.Done() {
			if _, _, err := dec.Next(); err != nil {
				b.Fatal(err)
			}
		}
		mesh = dec.Mesh()
	}
	b.ReportMetric(float64(len(mesh.Vertices)), "vertices")
}

// TestCodecAllocationsBounded is the gate that keeps a hash map or a
// per-element allocation out of the codec: a batch costs each end a
// bounded number of allocations — its scratch and state arrays, each grown
// at most once, and the frame — whatever the mesh holds. The large ROI has
// several times the small one's elements and must fit the same constant
// (8 and 12 per batch measured, about 15 and 17 under the race detector,
// whose build heap-allocates what escape analysis otherwise keeps on the
// stack; one allocation per element would be hundreds). A warm Run, which
// borrows its buffers for the stream and writes every frame from one of
// them, allocates a bounded number of times per stream — the encoder and
// its header — however many batches it has.
func TestCodecAllocationsBounded(t *testing.T) {
	const perBatch, perRun = 24, 4
	sets := benchFixture(t)
	small, large := sets[0].meshes[5], sets[1].meshes[5]
	if len(large.Triangles) < 4*len(small.Triangles) || len(small.Triangles) < 100 {
		t.Fatalf("fixture meshes hold %d and %d triangles: not far enough apart to tell a constant from a slope",
			len(small.Triangles), len(large.Triangles))
	}
	for i, rs := range sets {
		n := float64(len(rs.levels))
		enc := testing.AllocsPerRun(10, func() { rs.encode(t) })
		// stream.Encode's own Stream, its two slices and the encoder are
		// per answer, not per batch.
		if got := (enc - 5) / n; got > perBatch {
			t.Errorf("ROI %d: EncodeNext allocates %.1f times per batch, bound %d", i, got, perBatch)
		}
		body := flatten(rs.encode(t))
		dec := testing.AllocsPerRun(10, func() {
			d := stream.NewDecoder()
			if err := d.Attach(bytes.NewReader(body)); err != nil {
				t.Fatal(err)
			}
			for !d.Done() {
				if _, _, err := d.Next(); err != nil {
					t.Fatal(err)
				}
			}
		})
		if got := dec / n; got > perBatch {
			t.Errorf("ROI %d: Next allocates %.1f times per batch, bound %d", i, got, perBatch)
		}
		run := testing.AllocsPerRun(10, func() {
			e, err := stream.NewEncoder(rs.roi, rs.levels)
			if err != nil {
				t.Fatal(err)
			}
			rung := 0
			if _, _, err := e.Run(io.Discard, nil, func(float64) (*dm.Result, error) {
				rung++
				return rs.meshes[rung-1], nil
			}); err != nil {
				t.Fatal(err)
			}
		})
		if run > perRun && !raceEnabled {
			t.Errorf("ROI %d: a warm Run allocates %.1f times per stream, bound %d", i, run, perRun)
		}
		t.Logf("ROI %d (%d triangles at the target): %.1f allocations per EncodeNext, %.1f per Next, %.1f per Run",
			i, len(rs.meshes[len(rs.meshes)-1].Triangles), (enc-5)/n, dec/n, run)
	}
}
