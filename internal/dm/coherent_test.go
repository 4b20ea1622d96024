package dm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dmesh/internal/geom"
	"dmesh/internal/storage/faultfs"
	"dmesh/internal/storage/pager"
)

// requireSameMesh compares two results the way the Result type states
// its contract: same vertex IDs and positions, and Edges and Triangles
// equal as slices (every producer emits them ascending) — then, as the
// exactness properties are stated, equal CanonicalMesh bytes. The slice
// walk comes first because it names the first difference.
func requireSameMesh(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Vertices) != len(want.Vertices) {
		t.Fatalf("%s: %d vertices, want %d", label, len(got.Vertices), len(want.Vertices))
	}
	for id, p := range want.Vertices {
		if gp, ok := got.Vertices[id]; !ok || gp != p {
			t.Fatalf("%s: vertex %d = %v, want %v", label, id, gp, p)
		}
	}
	if len(got.Edges) != len(want.Edges) {
		t.Fatalf("%s: %d edges, want %d", label, len(got.Edges), len(want.Edges))
	}
	for i := range got.Edges {
		if got.Edges[i] != want.Edges[i] {
			t.Fatalf("%s: edge[%d] = %v, want %v", label, i, got.Edges[i], want.Edges[i])
		}
	}
	if len(got.Triangles) != len(want.Triangles) {
		t.Fatalf("%s: %d triangles, want %d", label, len(got.Triangles), len(want.Triangles))
	}
	for i := range got.Triangles {
		if got.Triangles[i] != want.Triangles[i] {
			t.Fatalf("%s: triangle[%d] = %v, want %v", label, i, got.Triangles[i], want.Triangles[i])
		}
	}
	if !bytes.Equal(CanonicalMesh(got), CanonicalMesh(want)) {
		t.Fatalf("%s: CanonicalMesh bytes differ", label)
	}
}

// requireReconciled pins fetched-set equality itself, not through a mesh:
// after a frame the session's record set is, field by field, a fresh
// fetch of the frame's target volume, and the slab behind it is zero, so
// no stale Conn pins an arena chunk.
func requireReconciled(t *testing.T, label string, s *Store, cs *CoherentSession, target []geom.Box) {
	t.Helper()
	f := s.newFetcher()
	if _, err := f.fetchBoxes(target); err != nil {
		t.Fatal(err)
	}
	want, got := f.fetched(), cs.fetched
	if len(got) != len(want) {
		t.Fatalf("%s: %d records retained, a fresh fetch of the target has %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := &got[i], &want[i]
		if g.ID != w.ID || g.Pos != w.Pos || g.ELow != w.ELow || g.EHigh != w.EHigh || g.Parent != w.Parent ||
			!slices.Equal(g.Conn, w.Conn) {
			t.Fatalf("%s: record %d is %+v, a fresh fetch has %+v", label, i, *g, *w)
		}
	}
	for i, n := range got[len(got):cap(got)] {
		if !zeroNode(&n) {
			t.Fatalf("%s: slab slot %d past the record set holds %+v", label, len(got)+i, n)
		}
	}
}

// cameraWalk yields a drifting ROI with occasional teleports — the
// random camera path of the exactness property test.
type cameraWalk struct {
	rng  *rand.Rand
	x, y float64
	w, h float64
}

func newCameraWalk(seed int64, w, h float64) *cameraWalk {
	rng := rand.New(rand.NewSource(seed))
	return &cameraWalk{rng: rng, x: rng.Float64() * (1 - w), y: rng.Float64() * (1 - h), w: w, h: h}
}

func (c *cameraWalk) next(teleport bool) geom.Rect {
	if teleport {
		c.x = c.rng.Float64() * (1 - c.w)
		c.y = c.rng.Float64() * (1 - c.h)
	} else {
		c.x += (c.rng.Float64()*2 - 1) * 0.08 * c.w
		c.y += (0.2 + c.rng.Float64()*0.6) * 0.15 * c.h // mostly forward
	}
	clamp := func(v, hi float64) float64 {
		if v < 0 {
			return 0
		}
		if v > hi {
			return hi
		}
		return v
	}
	c.x, c.y = clamp(c.x, 1-c.w), clamp(c.y, 1-c.h)
	return geom.Rect{MinX: c.x, MinY: c.y, MaxX: c.x + c.w, MaxY: c.y + c.h}
}

// TestCoherentSingleBaseExact drives a >= 30-frame random camera path
// on both datasets and checks that every incremental single-base frame
// equals the from-scratch query of the same plane.
func TestCoherentSingleBaseExact(t *testing.T) {
	for _, name := range []string{"highland", "crater"} {
		ds, _ := buildDataset(t, 9, name)
		s := newTestStore(t, ds)
		model, err := s.CostModel()
		if err != nil {
			t.Fatal(err)
		}
		cs := s.NewCoherentSession(model)
		walk := newCameraWalk(101, 0.55, 0.45)
		emin := eAtPercentile(ds, 0.5)
		emax := eAtPercentile(ds, 0.95)
		for i := 0; i < 36; i++ {
			roi := walk.next(i == 12 || i == 24)
			qp := geom.QueryPlane{R: roi, EMin: emin, EMax: emax, Axis: 1}
			got, st, err := cs.Frame(qp)
			if err != nil {
				t.Fatal(err)
			}
			want, err := s.SingleBase(qp)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s SB frame %d (full=%v)", name, i, st.Full)
			requireSameMesh(t, label, got, want)
			requireReconciled(t, label, s, cs, []geom.Box{s.cube(qp.R, qp.EMin, qp.EMax)})
		}
	}
}

// TestCoherentMultiBaseExact does the same for cost-model strip plans:
// the incremental frame must equal ExecuteStrips on the identical plan.
func TestCoherentMultiBaseExact(t *testing.T) {
	for _, name := range []string{"highland", "crater"} {
		ds, _ := buildDataset(t, 9, name)
		s := newTestStore(t, ds)
		model, err := s.CostModel()
		if err != nil {
			t.Fatal(err)
		}
		cs := s.NewCoherentSession(model)
		walk := newCameraWalk(202, 0.6, 0.5)
		emin := eAtPercentile(ds, 0.4)
		for i := 0; i < 32; i++ {
			roi := walk.next(i == 16)
			// Vary the plane slope so LOD-band changes dirty the mesh
			// even when the ROI barely moves.
			emax := emin + (0.5+0.5*float64(i%5)/4)*(ds.MaxE()-emin)
			qp := geom.QueryPlane{R: roi, EMin: emin, EMax: emax, Axis: 1}
			strips := model.PlanStrips(qp, 8)
			got, st, err := cs.FrameStrips(qp, strips)
			if err != nil {
				t.Fatal(err)
			}
			want, err := s.ExecuteStrips(qp, strips)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s MB frame %d (full=%v strips=%d)", name, i, st.Full, len(strips))
			requireSameMesh(t, label, got, want)
			requireReconciled(t, label, s, cs, stripBoxes(strips))
		}
	}
}

// TestCoherentUniformExact checks viewpoint-independent frames,
// including LODs above the dataset maximum (fetch clamp) and the
// whole-terrain rectangle.
func TestCoherentUniformExact(t *testing.T) {
	for _, name := range []string{"highland", "crater"} {
		ds, _ := buildDataset(t, 9, name)
		s := newTestStore(t, ds)
		model, err := s.CostModel()
		if err != nil {
			t.Fatal(err)
		}
		cs := s.NewCoherentSession(model)
		walk := newCameraWalk(303, 0.5, 0.5)
		for i := 0; i < 30; i++ {
			roi := walk.next(i == 10)
			if i == 20 {
				roi = fullRect()
			}
			e := eAtPercentile(ds, 0.3+0.6*float64(i%7)/6)
			if i%9 == 8 {
				e = ds.MaxE() * 1.5 // above every stored segment: root cut
			}
			got, st, err := cs.FrameUniform(roi, e)
			if err != nil {
				t.Fatal(err)
			}
			want, err := s.ViewpointIndependent(roi, e)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s uniform frame %d (full=%v e=%g)", name, i, st.Full, e)
			requireSameMesh(t, label, got, want)
			requireReconciled(t, label, s, cs, []geom.Box{s.cube(roi, e, e)})
		}
	}
}

// TestCoherentMixedModesExact interleaves uniform, single-base, and
// multi-base frames in one session: the retained set must carry across
// plane types.
func TestCoherentMixedModesExact(t *testing.T) {
	ds, _ := buildDataset(t, 9, "highland")
	s := newTestStore(t, ds)
	model, err := s.CostModel()
	if err != nil {
		t.Fatal(err)
	}
	cs := s.NewCoherentSession(model)
	walk := newCameraWalk(404, 0.5, 0.45)
	emin := eAtPercentile(ds, 0.5)
	emax := eAtPercentile(ds, 0.97)
	for i := 0; i < 33; i++ {
		roi := walk.next(i == 11)
		qp := geom.QueryPlane{R: roi, EMin: emin, EMax: emax, Axis: 1}
		label := fmt.Sprintf("mixed frame %d mode %d", i, i%3)
		var target []geom.Box
		switch i % 3 {
		case 0:
			got, _, err := cs.FrameUniform(roi, emax)
			if err != nil {
				t.Fatal(err)
			}
			want, err := s.ViewpointIndependent(roi, emax)
			if err != nil {
				t.Fatal(err)
			}
			requireSameMesh(t, label, got, want)
			target = []geom.Box{s.cube(roi, emax, emax)}
		case 1:
			got, _, err := cs.Frame(qp)
			if err != nil {
				t.Fatal(err)
			}
			want, err := s.SingleBase(qp)
			if err != nil {
				t.Fatal(err)
			}
			requireSameMesh(t, label, got, want)
			target = []geom.Box{s.cube(qp.R, qp.EMin, qp.EMax)}
		default:
			got, _, err := cs.FrameMultiBase(qp, 6)
			if err != nil {
				t.Fatal(err)
			}
			want, err := s.MultiBase(qp, model, 6)
			if err != nil {
				t.Fatal(err)
			}
			requireSameMesh(t, label, got, want)
			target = stripBoxes(model.PlanStrips(qp, 6))
		}
		requireReconciled(t, label, s, cs, target)
	}
}

// TestCoherentReconcileTies drives the two ways a delta frame's arrivals
// repeat IDs. Fragments share faces with the retained cover, so records on
// those faces are fetched again; an L-shaped delta is two fragments that
// share a face, so records on it arrive twice. At 9² the grid points sit
// on multiples of 1/8, which every face here is. Each tie keeps the
// retained copy, or the first arrival, and the set must still be a fresh
// fetch of the target: the frame drops exactly the repeats a fresh fetch
// of the fragments reports, and answers like the one-shot query.
func TestCoherentReconcileTies(t *testing.T) {
	ds, _ := buildDataset(t, 9, "highland")
	s := newTestStore(t, ds)
	emin, emax := eAtPercentile(ds, 0.3), eAtPercentile(ds, 0.95)
	plane := func(maxX, maxY float64) geom.QueryPlane {
		return geom.QueryPlane{R: geom.Rect{MinX: 0.25, MinY: 0.25, MaxX: maxX, MaxY: maxY}, EMin: emin, EMax: emax, Axis: 1}
	}
	cases := []struct {
		name       string
		from, to   geom.QueryPlane
		shareFaces bool // two fragments share a face
	}{
		{"fragment re-fetches the retained face", plane(0.75, 0.5), plane(0.75, 0.75), false},
		{"two fragments share a face", plane(0.5, 0.5), plane(0.75, 0.75), true},
	}
	for _, c := range cases {
		cs := s.NewCoherentSession(nil) // no model: the second frame is a delta
		if _, _, err := cs.Frame(c.from); err != nil {
			t.Fatal(err)
		}
		got, st, err := cs.Frame(c.to)
		if err != nil {
			t.Fatal(err)
		}
		cover, target := []geom.Box{s.cube(c.from.R, emin, emax)}, []geom.Box{s.cube(c.to.R, emin, emax)}
		frags := geom.Difference(target, cover)
		if st.Full || st.Fragments != len(frags) {
			t.Fatalf("%s: frame %+v, want a delta over %d fragments", c.name, st, len(frags))
		}
		if shared := len(frags) == 2 && frags[0].Intersects(frags[1]); shared != c.shareFaces {
			t.Fatalf("%s: fragments %v share a face: %v, want %v", c.name, frags, shared, c.shareFaces)
		}

		// What the fragments deliver, fetched fresh: arrivals in all, and
		// the distinct ones the cover already held.
		f := s.newFetcher()
		arrivals, err := f.fetchEach(frags)
		if err != nil {
			t.Fatal(err)
		}
		distinct := f.fetched()
		held := s.newFetcher()
		if _, err := held.fetchBoxes(cover); err != nil {
			t.Fatal(err)
		}
		ties := 0
		for _, n := range held.fetched() {
			if _, found := slices.BinarySearchFunc(distinct, n.ID, func(m Node, id int64) int { return int(m.ID - id) }); found {
				ties++
			}
		}
		if ties == 0 {
			t.Fatalf("%s: no fragment re-fetched a retained record", c.name)
		}
		if c.shareFaces && arrivals == len(distinct) {
			t.Fatalf("%s: no record arrived twice", c.name)
		}
		if st.Evicted != 0 || st.Fetched != arrivals {
			t.Fatalf("%s: frame %+v, want no eviction and %d arrivals", c.name, st, arrivals)
		}
		if dropped, want := st.Retained+st.Fetched-len(cs.fetched), arrivals-len(distinct)+ties; dropped != want {
			t.Errorf("%s: reconcile dropped %d repeats, want %d (%d within the arrivals, %d retained)",
				c.name, dropped, want, arrivals-len(distinct), ties)
		}
		requireReconciled(t, c.name, s, cs, target)
		want, err := s.SingleBase(c.to)
		if err != nil {
			t.Fatal(err)
		}
		requireSameMesh(t, c.name, got, want)
	}
}

// TestCoherentFallbackAndEviction pins the control-flow behavior: the
// first frame is full, drifting frames run incrementally with evictions
// and retained nodes, a teleport falls back to a full requery, and
// Invalidate forces one.
func TestCoherentFallbackAndEviction(t *testing.T) {
	ds, _ := buildDataset(t, 9, "highland")
	s := newTestStore(t, ds)
	model, err := s.CostModel()
	if err != nil {
		t.Fatal(err)
	}
	cs := s.NewCoherentSession(model)
	emin, emax := eAtPercentile(ds, 0.5), eAtPercentile(ds, 0.95)
	plane := func(y float64) geom.QueryPlane {
		return geom.QueryPlane{R: geom.Rect{MinX: 0.1, MinY: y, MaxX: 0.6, MaxY: y + 0.4}, EMin: emin, EMax: emax, Axis: 1}
	}
	_, st, err := cs.Frame(plane(0.0))
	if err != nil {
		t.Fatal(err)
	}
	if !st.Full {
		t.Fatal("first frame must be full")
	}
	sawEvict := false
	for i := 1; i <= 5; i++ {
		_, st, err = cs.Frame(plane(0.04 * float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if st.Full {
			t.Fatalf("drift frame %d fell back to full (predFull=%g predDelta=%g)", i, st.PredFullDA, st.PredDeltaDA)
		}
		if st.Retained == 0 {
			t.Fatalf("drift frame %d retained nothing", i)
		}
		sawEvict = sawEvict || st.Evicted > 0
	}
	if !sawEvict {
		t.Fatal("no drift frame evicted anything")
	}
	// Teleport to a disjoint ROI: the fragments equal the target, so
	// the decision must prefer the clean full query.
	qp := plane(0.55)
	qp.R.MinX, qp.R.MaxX = 0.62, 0.98
	_, st, err = cs.Frame(qp)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Full {
		t.Fatalf("teleport frame not full (predFull=%g predDelta=%g)", st.PredFullDA, st.PredDeltaDA)
	}
	cs.Invalidate()
	_, st, err = cs.Frame(qp)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Full {
		t.Fatal("frame after Invalidate must be full")
	}
}

// TestCoherentIdenticalFrameFree: re-querying the same plane must fetch
// nothing and still return the identical mesh.
func TestCoherentIdenticalFrame(t *testing.T) {
	ds, _ := buildDataset(t, 9, "crater")
	s := newTestStore(t, ds)
	model, err := s.CostModel()
	if err != nil {
		t.Fatal(err)
	}
	cs := s.NewCoherentSession(model)
	qp := geom.QueryPlane{
		R:    geom.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.7, MaxY: 0.7},
		EMin: eAtPercentile(ds, 0.5), EMax: eAtPercentile(ds, 0.9), Axis: 1,
	}
	first, _, err := cs.Frame(qp)
	if err != nil {
		t.Fatal(err)
	}
	second, st, err := cs.Frame(qp)
	if err != nil {
		t.Fatal(err)
	}
	if st.Full || st.Fetched != 0 || st.Evicted != 0 {
		t.Fatalf("identical frame not free: %+v", st)
	}
	requireSameMesh(t, "identical frame", second, first)
}

// TestConnListsSymmetric pins the assumption both assemblers rely on
// when they visit each connection pair from its lower endpoint only: if
// b is in a's connection list, a is in b's.
func TestConnListsSymmetric(t *testing.T) {
	for _, name := range []string{"highland", "crater"} {
		ds, _ := buildDataset(t, 9, name)
		for id := range ds.Conn {
			for _, b := range ds.Conn[id] {
				found := false
				for _, back := range ds.Conn[b] {
					if back == int64(id) {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("%s: conn asymmetry: %d lists %d but not vice versa", name, id, b)
				}
			}
		}
	}
}

// TestCoherentSavesDiskAccesses is the economics check: on a
// memory-constrained store (multi-tenant pool pressure), a drifting
// 90%-overlap path answered incrementally must pay well under half the
// disk accesses of warm full requeries of the same frames.
func TestCoherentSavesDiskAccesses(t *testing.T) {
	ds, _ := buildDataset(t, 33, "highland")
	s, err := BuildStore(ds, StorePools{Data: 8, Overflow: 4, Index: 8, IDIndex: 4})
	if err != nil {
		t.Fatal(err)
	}
	model, err := s.CostModel()
	if err != nil {
		t.Fatal(err)
	}
	emin, emax := eAtPercentile(ds, 0.5), eAtPercentile(ds, 0.95)
	planes := make([]geom.QueryPlane, 20)
	for i := range planes {
		y := 0.02 * float64(i)
		planes[i] = geom.QueryPlane{
			R:    geom.Rect{MinX: 0.1, MinY: y, MaxX: 0.7, MaxY: y + 0.45},
			EMin: emin, EMax: emax, Axis: 1,
		}
	}

	if err := s.DropCaches(); err != nil {
		t.Fatal(err)
	}
	sess := s.NewSession()
	var fullDA uint64
	for i, qp := range planes {
		sess.ResetStats()
		if _, err := sess.SingleBase(qp); err != nil {
			t.Fatal(err)
		}
		if i > 0 { // frame 0 is cold for both engines; compare steady state
			fullDA += sess.DiskAccesses()
		}
	}

	if err := s.DropCaches(); err != nil {
		t.Fatal(err)
	}
	cs := s.NewCoherentSession(model)
	var incDA uint64
	for i, qp := range planes {
		_, st, err := cs.Frame(qp)
		if err != nil {
			t.Fatal(err)
		}
		if st.Full && i > 0 {
			t.Fatalf("frame %d unexpectedly full", i)
		}
		if i > 0 {
			incDA += st.DA
		}
	}
	if incDA*2 > fullDA {
		t.Fatalf("incremental DA %d not 2x better than full %d", incDA, fullDA)
	}
}

// TestCoherentSurvivesReadFault injects a data-page read fault in the
// middle of a camera walk, on a pool small enough that frames really
// read pages, at a read a dry pass of the walk saw the frame make. The failing frame must return the injected error and
// still report every page it read (FrameStats.DA equals the backend
// reads the wrappers saw, the failed one included, and the trace agrees);
// the session must come out clean: the next frame runs Full, and it and
// the incremental frames after it equal the from-scratch query.
func TestCoherentSurvivesReadFault(t *testing.T) {
	ds, _ := buildDataset(t, 33, "highland")
	var fbs []*faultfs.Backend // heap, overflow, r*-tree, id index
	s, err := BuildStore(ds, StorePools{Data: 8, Overflow: 4, Index: 8, IDIndex: 4,
		WrapBackend: func(b pager.Backend) pager.Backend {
			fb := faultfs.Wrap(b)
			fbs = append(fbs, fb)
			return fb
		}})
	if err != nil {
		t.Fatal(err)
	}
	model, err := s.CostModel()
	if err != nil {
		t.Fatal(err)
	}
	oracle := s.NewSession()
	backendReads := func() (n uint64) {
		for _, fb := range fbs {
			n += fb.Stats().Ops[faultfs.Read]
		}
		return n
	}

	emin, emax := eAtPercentile(ds, 0.5), eAtPercentile(ds, 0.95)
	planeAt := func(i int) geom.QueryPlane {
		y := 0.03 * float64(i)
		return geom.QueryPlane{R: geom.Rect{MinX: 0.1, MinY: y, MaxX: 0.7, MaxY: y + 0.45}, EMin: emin, EMax: emax, Axis: 1}
	}
	const faultAt = 6

	// A dry pass of the same walk from the same cold pools counts the
	// data pages frame faultAt reads; the faulted pass fails the middle
	// one of them, a read that really happens however densely the
	// records pack.
	if err := s.DropCaches(); err != nil {
		t.Fatal(err)
	}
	dry := s.NewCoherentSession(model)
	var dataReads uint64
	for i := 0; i <= faultAt; i++ {
		before := fbs[0].Stats().Ops[faultfs.Read]
		if _, _, err := dry.Frame(planeAt(i)); err != nil {
			t.Fatalf("dry frame %d: %v", i, err)
		}
		dataReads = fbs[0].Stats().Ops[faultfs.Read] - before
		if i < faultAt {
			if _, err := oracle.SingleBase(planeAt(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if dataReads == 0 {
		t.Fatalf("dry frame %d read no data page", faultAt)
	}
	faultNth := (dataReads + 1) / 2

	if err := s.DropCaches(); err != nil {
		t.Fatal(err)
	}
	cs := s.NewCoherentSession(model)
	tr := cs.EnableTrace()
	sawDelta := false
	for i := 0; i < 14; i++ {
		qp := planeAt(i)
		if i == faultAt {
			fbs[0].ResetStats()
			fbs[0].SetSchedule(faultfs.Read, faultfs.Schedule{Nth: []uint64{faultNth}})
		}
		before := backendReads()
		got, st, err := cs.Frame(qp)
		reads := backendReads() - before
		if cerr := tr.CheckTotal(st.DA); cerr != nil {
			t.Errorf("frame %d: %v", i, cerr)
		}
		if st.DA != reads {
			t.Errorf("frame %d: FrameStats.DA = %d, backends served %d reads", i, st.DA, reads)
		}
		if i == faultAt {
			if !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("faulted frame returned %v, want the injected error", err)
			}
			if got != nil || st.DA < faultNth {
				t.Fatalf("faulted frame: result %v, stats %+v", got, st)
			}
			if cs.fetched != nil || cs.cover != nil {
				t.Fatal("faulted frame left retained state behind")
			}
			fbs[0].Heal()
			continue
		}
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if want := i == 0 || i == faultAt+1; st.Full != want {
			t.Fatalf("frame %d: Full = %v, want %v (%+v)", i, st.Full, want, st)
		}
		sawDelta = sawDelta || (i > faultAt && !st.Full && st.Retained > 0)
		want, err := oracle.SingleBase(qp)
		if err != nil {
			t.Fatal(err)
		}
		requireSameMesh(t, fmt.Sprintf("frame %d (full=%v)", i, st.Full), got, want)
	}
	if !sawDelta {
		t.Fatal("no incremental frame ran after the fault healed")
	}
}
