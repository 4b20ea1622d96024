package dm

import (
	"sync"
	"testing"

	"dmesh/internal/geom"
)

// TestConcurrentQueries runs many viewpoint-independent and plane queries
// in parallel against one store: queries are read-only and the pager is
// synchronized, so results must match the serial answers.
func TestConcurrentQueries(t *testing.T) {
	ds, _ := buildDataset(t, 9, "highland")
	s := newTestStore(t, ds)

	type qcase struct {
		roi geom.Rect
		e   float64
	}
	cases := []qcase{
		{fullRect(), eAtPercentile(ds, 0.3)},
		{geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.6, MaxY: 0.6}, eAtPercentile(ds, 0.5)},
		{geom.Rect{MinX: 0.4, MinY: 0.2, MaxX: 0.9, MaxY: 0.8}, eAtPercentile(ds, 0.8)},
	}
	want := make([]int, len(cases))
	for i, c := range cases {
		res, err := s.ViewpointIndependent(c.roi, c.e)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = len(res.Vertices)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 10; iter++ {
				c := cases[(g+iter)%len(cases)]
				res, err := s.ViewpointIndependent(c.roi, c.e)
				if err != nil {
					errs <- err
					return
				}
				if len(res.Vertices) != want[(g+iter)%len(cases)] {
					t.Errorf("concurrent query returned %d vertices, want %d",
						len(res.Vertices), want[(g+iter)%len(cases)])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentPlaneQueries runs single-base and multi-base queries in
// parallel against one store and checks every result against the serial
// answer — the viewpoint-dependent paths share fetcher state per query,
// never across queries.
func TestConcurrentPlaneQueries(t *testing.T) {
	ds, _ := buildDataset(t, 9, "highland")
	s := newTestStore(t, ds)
	model, err := s.CostModel()
	if err != nil {
		t.Fatal(err)
	}

	planes := []geom.QueryPlane{
		{R: geom.Rect{MinX: 0.05, MinY: 0.05, MaxX: 0.95, MaxY: 0.95},
			EMin: eAtPercentile(ds, 0.2), EMax: eAtPercentile(ds, 0.9), Axis: 1},
		{R: geom.Rect{MinX: 0.1, MinY: 0.2, MaxX: 0.7, MaxY: 0.8},
			EMin: eAtPercentile(ds, 0.4), EMax: eAtPercentile(ds, 0.97), Axis: 0},
	}
	type answer struct{ verts, tris, strips int }
	wantSB := make([]answer, len(planes))
	wantMB := make([]answer, len(planes))
	for i, qp := range planes {
		sb, err := s.SingleBase(qp)
		if err != nil {
			t.Fatal(err)
		}
		wantSB[i] = answer{len(sb.Vertices), len(sb.Triangles), sb.Strips}
		mb, err := s.MultiBase(qp, model, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantMB[i] = answer{len(mb.Vertices), len(mb.Triangles), mb.Strips}
	}

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 6; iter++ {
				i := (g + iter) % len(planes)
				sb, err := s.SingleBase(planes[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got := (answer{len(sb.Vertices), len(sb.Triangles), sb.Strips}); got != wantSB[i] {
					t.Errorf("concurrent SingleBase: got %+v, want %+v", got, wantSB[i])
					return
				}
				mb, err := s.MultiBase(planes[i], model, 0)
				if err != nil {
					t.Error(err)
					return
				}
				if got := (answer{len(mb.Vertices), len(mb.Triangles), mb.Strips}); got != wantMB[i] {
					t.Errorf("concurrent MultiBase: got %+v, want %+v", got, wantMB[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentSessionAttribution checks the per-session accounting
// invariant: starting cold, the disk accesses of sessions run from
// concurrent goroutines, one session a query, sum exactly to the store's
// global counter — every page read is charged to exactly one session —
// and each concurrent answer equals the serial one.
func TestConcurrentSessionAttribution(t *testing.T) {
	ds, _ := buildDataset(t, 9, "highland")
	s := newTestStore(t, ds)
	model, err := s.CostModel()
	if err != nil {
		t.Fatal(err)
	}
	qp := geom.QueryPlane{
		R:    geom.Rect{MinX: 0.05, MinY: 0.05, MaxX: 0.95, MaxY: 0.95},
		EMin: eAtPercentile(ds, 0.3), EMax: eAtPercentile(ds, 0.9), Axis: 1,
	}
	uniform := func(roi geom.Rect, e float64) func(*Session) (*Result, error) {
		return func(q *Session) (*Result, error) { return q.ViewpointIndependent(roi, e) }
	}
	strips := model.PlanStrips(qp, 0)
	qs := []func(*Session) (*Result, error){
		uniform(geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.6, MaxY: 0.6}, eAtPercentile(ds, 0.5)),
		uniform(geom.Rect{MinX: 0.3, MinY: 0.2, MaxX: 0.9, MaxY: 0.8}, eAtPercentile(ds, 0.7)),
		func(q *Session) (*Result, error) { return q.SingleBase(qp) },
		func(q *Session) (*Result, error) { return q.ExecuteStrips(qp, strips) },
		uniform(fullRect(), eAtPercentile(ds, 0.9)),
	}
	type outcome struct {
		res *Result
		da  uint64
		err error
	}
	run := func(i int) outcome {
		sess := s.NewSession()
		res, err := qs[i](sess)
		return outcome{res, sess.DiskAccesses(), err}
	}

	// Serial baseline answers (counts only; maps compare by content).
	serial := make([]outcome, len(qs))
	for i := range qs {
		if serial[i] = run(i); serial[i].err != nil {
			t.Fatalf("query %d: %v", i, serial[i].err)
		}
	}

	if err := s.DropCaches(); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	out := make([]outcome, len(qs))
	var wg sync.WaitGroup
	for i := range qs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = run(i)
		}(i)
	}
	wg.Wait()
	var sum uint64
	for i, r := range out {
		if r.err != nil {
			t.Fatalf("query %d: %v", i, r.err)
		}
		// No per-query DA floor: overlapping queries legitimately hit
		// pages a concurrent sibling already faulted in.
		if len(r.res.Vertices) != len(serial[i].res.Vertices) ||
			len(r.res.Triangles) != len(serial[i].res.Triangles) {
			t.Fatalf("query %d: concurrent result (%d verts, %d tris) != serial (%d, %d)",
				i, len(r.res.Vertices), len(r.res.Triangles),
				len(serial[i].res.Vertices), len(serial[i].res.Triangles))
		}
		sum += r.da
	}
	if global := s.DiskAccesses(); sum != global {
		t.Fatalf("per-query DA sum %d != store global %d", sum, global)
	}
	if sum == 0 {
		t.Fatal("cold concurrent sessions report zero disk accesses in total")
	}
}

// TestShardedStoreColdDAMatchesUnsharded: sharding the buffer pool must
// not change the paper's metric on a cold run — with no evictions the
// cold read count is the number of distinct pages touched, independent of
// how they are spread over shards.
func TestShardedStoreColdDAMatchesUnsharded(t *testing.T) {
	ds, _ := buildDataset(t, 9, "highland")
	mono := newTestStore(t, ds)
	sharded, err := BuildStore(ds, StorePools{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	roi := geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.8, MaxY: 0.8}
	e := eAtPercentile(ds, 0.6)
	coldDA := func(s *Store) uint64 {
		t.Helper()
		if err := s.DropCaches(); err != nil {
			t.Fatal(err)
		}
		s.ResetStats()
		if _, err := s.ViewpointIndependent(roi, e); err != nil {
			t.Fatal(err)
		}
		return s.DiskAccesses()
	}
	if a, b := coldDA(mono), coldDA(sharded); a != b {
		t.Fatalf("cold DA differs: 1 shard %d, 8 shards %d", a, b)
	}
}
