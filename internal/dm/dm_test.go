package dm

import (
	"errors"
	"math"
	"slices"
	"sort"
	"testing"

	"dmesh/internal/costmodel"
	"dmesh/internal/geom"
	"dmesh/internal/heightfield"
	"dmesh/internal/mesh"
	"dmesh/internal/simplify"
)

func buildDataset(t testing.TB, size int, dataset string) (*Dataset, *simplify.Sequence) {
	t.Helper()
	g, err := heightfield.Named(dataset, size, 5)
	if err != nil {
		t.Fatal(err)
	}
	m := mesh.FromGrid(g)
	seq, err := simplify.Run(m, simplify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := FromSequence(seq)
	if err != nil {
		t.Fatal(err)
	}
	return ds, seq
}

// newTestStore builds the default store, the way the facade does. Its
// ladder is LODLadder(ds): eAtPercentile of 0.5, 0.7, 0.8, 0.9, 0.95,
// 0.97, 0.99 and 0.995, the LODs tiles materialize at.
func newTestStore(t testing.TB, ds *Dataset) *Store {
	t.Helper()
	s, err := BuildStore(ds, StorePools{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func fullRect() geom.Rect { return geom.Rect{MinX: -1, MinY: -1, MaxX: 2, MaxY: 2} }

// eAtPercentile returns the p-th percentile of internal-node ELow values.
func eAtPercentile(ds *Dataset, p float64) float64 {
	var es []float64
	for i := range ds.Tree.Nodes {
		if !ds.Tree.Nodes[i].IsLeaf() {
			es = append(es, ds.Tree.Nodes[i].ELow)
		}
	}
	sort.Float64s(es)
	return es[int(p*float64(len(es)-1))]
}

func TestRecordRoundTrip(t *testing.T) {
	ds, _ := buildDataset(t, 6, "highland")
	buf := make([]byte, RecordSize)
	for i := range ds.Tree.Nodes {
		n := ds.Node(int64(i))
		if len(n.Conn) > ConnInline {
			continue // overflow covered by the store tests
		}
		encodeRecord(&n, ds.links(int64(i)), noOverflow, buf)
		got, links, total, ref := decodeRecordHeader(buf, nil)
		if total != len(n.Conn) || ref != noOverflow {
			t.Fatalf("round trip header mismatch for node %d", i)
		}
		if got.ID != n.ID || got.Pos != n.Pos || got.ELow != n.ELow || got.EHigh != n.EHigh ||
			got.Parent != n.Parent || links != ds.links(int64(i)) {
			t.Fatalf("round trip mismatch for node %d", i)
		}
		for k := range n.Conn {
			if got.Conn[k] != n.Conn[k] {
				t.Fatalf("conn mismatch for node %d", i)
			}
		}
	}
}

func TestOverflowRoundTrip(t *testing.T) {
	ids := []int64{5, 9, 13}
	buf := make([]byte, OverflowRecordSize)
	encodeOverflow(ids, 42, buf)
	got, next := decodeOverflow(buf)
	if next != 42 || len(got) != 3 || got[0] != 5 || got[2] != 13 {
		t.Fatalf("overflow round trip: %v next %d", got, next)
	}
}

func TestStoreFetchByID(t *testing.T) {
	ds, _ := buildDataset(t, 8, "highland")
	s := newTestStore(t, ds)
	for _, id := range []int64{0, 7, int64(len(ds.Tree.Nodes) - 1)} {
		n, err := s.FetchByID(id)
		if err != nil {
			t.Fatal(err)
		}
		want := ds.Node(id)
		if n.ID != want.ID || n.Pos != want.Pos || n.ELow != want.ELow || n.EHigh != want.EHigh ||
			n.Parent != want.Parent {
			t.Fatalf("node %d mismatch", id)
		}
		if len(n.Conn) != len(want.Conn) {
			t.Fatalf("node %d conn length %d, want %d (overflow chain broken?)", id, len(n.Conn), len(want.Conn))
		}
		for i := range n.Conn {
			if n.Conn[i] != want.Conn[i] {
				t.Fatalf("node %d conn[%d] mismatch", id, i)
			}
		}
	}
}

// The headline correctness claim: for a uniform-LOD query over the whole
// terrain, the Direct Mesh reconstruction (interval cut + connection
// lists) is EXACTLY the mesh the collapse sequence defines at that LOD.
func TestViewpointIndependentExactAgainstReplay(t *testing.T) {
	for _, name := range []string{"highland", "crater"} {
		ds, seq := buildDataset(t, 9, name)
		// The anchor must hold for every physical layout — record encoding
		// and page placement can never change a reconstruction.
		for _, l := range allLayouts {
			s, err := BuildStore(ds, StorePools{Layout: l})
			if err != nil {
				t.Fatal(err)
			}
			checkExactAgainstReplay(t, name+"/"+l.String(), ds, seq, s)
		}
	}
}

// checkExactAgainstReplay asserts the store's reconstruction at several
// LODs equals the collapse-sequence replay exactly — the correctness
// anchor for the whole multiresolution structure.
func checkExactAgainstReplay(t *testing.T, name string, ds *Dataset, seq *simplify.Sequence, s *Store) {
	t.Helper()
	{
		for _, pct := range []float64{0, 0.25, 0.5, 0.75, 0.95} {
			var e float64
			if pct > 0 {
				e = eAtPercentile(ds, pct)
			}
			res, err := s.ViewpointIndependent(fullRect(), e)
			if err != nil {
				t.Fatal(err)
			}
			step := seq.StepForLOD(e)
			truth, err := seq.AdjacencyAtStep(step)
			if err != nil {
				t.Fatal(err)
			}
			// Vertex sets must match.
			if len(res.Vertices) != len(truth) {
				t.Fatalf("%s e=%g: %d vertices, replay has %d", name, e, len(res.Vertices), len(truth))
			}
			for id := range res.Vertices {
				if _, ok := truth[id]; !ok {
					t.Fatalf("%s e=%g: vertex %d not in replay", name, e, id)
				}
			}
			// Edge sets must match.
			truthEdges := make(map[[2]int64]bool)
			for v, ns := range truth {
				for _, u := range ns {
					truthEdges[[2]int64{min(v, u), max(v, u)}] = true
				}
			}
			if len(res.Edges) != len(truthEdges) {
				t.Fatalf("%s e=%g: %d edges, replay has %d", name, e, len(res.Edges), len(truthEdges))
			}
			for _, ed := range res.Edges {
				if !truthEdges[ed] {
					t.Fatalf("%s e=%g: edge %v not in replay", name, e, ed)
				}
			}
		}
	}
}

func TestViewpointIndependentROI(t *testing.T) {
	ds, _ := buildDataset(t, 9, "highland")
	s := newTestStore(t, ds)
	e := eAtPercentile(ds, 0.4)
	roi := geom.Rect{MinX: 0.25, MinY: 0.25, MaxX: 0.75, MaxY: 0.75}
	res, err := s.ViewpointIndependent(roi, e)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vertices) == 0 {
		t.Fatal("empty ROI result")
	}
	// Every vertex in the ROI, live at e.
	for id, pos := range res.Vertices {
		if !roi.ContainsPoint(pos.XY()) {
			t.Fatalf("vertex %d outside ROI", id)
		}
		if !ds.Tree.Nodes[id].Interval().Contains(e) {
			t.Fatalf("vertex %d not live at e", id)
		}
	}
	// And the result is exactly the full-domain cut restricted to the ROI.
	want := 0
	for _, id := range ds.UniformCut(e) {
		if roi.ContainsPoint(ds.Tree.Nodes[id].Pos.XY()) {
			want++
		}
	}
	if len(res.Vertices) != want {
		t.Fatalf("ROI cut has %d vertices, want %d", len(res.Vertices), want)
	}
}

func TestTrianglesTileTheDomain(t *testing.T) {
	// At any uniform LOD the reconstructed triangles must tile the mesh
	// footprint: sum of projected areas equals the full-resolution mesh's
	// projected area (the unit square), within tolerance for boundary
	// simplification.
	ds, _ := buildDataset(t, 9, "highland")
	s := newTestStore(t, ds)
	for _, pct := range []float64{0, 0.3, 0.6, 0.9} {
		var e float64
		if pct > 0 {
			e = eAtPercentile(ds, pct)
		}
		res, err := s.ViewpointIndependent(fullRect(), e)
		if err != nil {
			t.Fatal(err)
		}
		var area float64
		for _, tri := range res.Triangles {
			a := res.Vertices[tri.A].XY()
			b := res.Vertices[tri.B].XY()
			c := res.Vertices[tri.C].XY()
			cr := (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
			if cr < 0 {
				cr = -cr
			}
			area += cr / 2
		}
		if area < 0.90 || area > 1.10 {
			t.Fatalf("pct=%g: projected triangle area %g, want ~1", pct, area)
		}
	}
}

func TestSingleBaseDegeneratePlaneEqualsUniform(t *testing.T) {
	ds, _ := buildDataset(t, 8, "highland")
	s := newTestStore(t, ds)
	e := eAtPercentile(ds, 0.5)
	qp := geom.QueryPlane{R: fullRect(), EMin: e, EMax: e, Axis: 1}
	sb, err := s.SingleBase(qp)
	if err != nil {
		t.Fatal(err)
	}
	vi, err := s.ViewpointIndependent(fullRect(), e)
	if err != nil {
		t.Fatal(err)
	}
	a, b := sortedIDs(sb.Vertices), sortedIDs(vi.Vertices)
	if len(a) != len(b) {
		t.Fatalf("degenerate single-base %d vertices, uniform %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("degenerate single-base differs from uniform query")
		}
	}
}

func TestSingleBasePlaneLiveSet(t *testing.T) {
	ds, _ := buildDataset(t, 9, "crater")
	s := newTestStore(t, ds)
	qp := geom.QueryPlane{
		R:    geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.9, MaxY: 0.9},
		EMin: eAtPercentile(ds, 0.2), EMax: eAtPercentile(ds, 0.85), Axis: 1,
	}
	res, err := s.SingleBase(qp)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vertices) == 0 {
		t.Fatal("empty single-base result")
	}
	// The live set is exactly the per-position interval rule.
	want := make(map[int64]bool)
	for i := range ds.Tree.Nodes {
		n := &ds.Tree.Nodes[i]
		if !qp.R.ContainsPoint(n.Pos.XY()) {
			continue
		}
		if n.Interval().Contains(qp.EAt(n.Pos.X, n.Pos.Y)) {
			want[int64(i)] = true
		}
	}
	if len(res.Vertices) != len(want) {
		t.Fatalf("live set %d, want %d", len(res.Vertices), len(want))
	}
	for id := range res.Vertices {
		if !want[id] {
			t.Fatalf("vertex %d should not be live", id)
		}
	}
	// Near (low y) vertices must be finer on average than far ones.
	var nearSum, farSum float64
	var nearN, farN int
	for id := range res.Vertices {
		n := &ds.Tree.Nodes[id]
		if n.Pos.Y < 0.5 {
			nearSum += n.ELow
			nearN++
		} else {
			farSum += n.ELow
			farN++
		}
	}
	if nearN > 0 && farN > 0 && nearSum/float64(nearN) > farSum/float64(farN) {
		t.Fatal("near half coarser than far half")
	}
}

// TestInvertedPlaneRefused: a plane with EMin > EMax (its near edge
// coarser than its far edge) has a well-defined in-memory cut, but its
// cube r x [EMin, EMax] is inverted in e and the R*-tree returns only the
// segments spanning the whole range — on this plane 107 of the cut's 130
// vertices, with no error. Every viewpoint-dependent entry point refuses
// the plane with ErrInvertedPlane instead, and a coherent session keeps
// its retained state through the refusal.
func TestInvertedPlaneRefused(t *testing.T) {
	ds, _ := buildDataset(t, 33, "highland")
	s := newTestStore(t, ds)
	model, err := s.CostModel()
	if err != nil {
		t.Fatal(err)
	}
	upright := geom.QueryPlane{R: geom.Rect{MinX: 0.2, MinY: 0, MaxX: 0.7, MaxY: 0.4},
		EMin: eAtPercentile(ds, 0.2), EMax: eAtPercentile(ds, 0.6), Axis: 1}
	inverted := upright
	inverted.EMin, inverted.EMax = upright.EMax, upright.EMin
	if inverted.EMin <= inverted.EMax {
		t.Fatalf("plane %+v is not inverted", inverted)
	}
	cut := 0
	for i := range ds.Tree.Nodes {
		n := &ds.Tree.Nodes[i]
		if inverted.R.ContainsPoint(n.Pos.XY()) && n.Interval().Contains(inverted.EAt(n.Pos.X, n.Pos.Y)) {
			cut++
		}
	}
	if cut == 0 {
		t.Fatal("the inverted plane's in-memory cut is empty")
	}

	cs := s.NewCoherentSession(model)
	if _, _, err := cs.Frame(upright); err != nil {
		t.Fatal(err)
	}
	strips := model.PlanStrips(upright, 4)
	entries := map[string]func() (*Result, error){
		"SingleBase":    func() (*Result, error) { return s.SingleBase(inverted) },
		"MultiBase":     func() (*Result, error) { return s.MultiBase(inverted, model, 4) },
		"ExecuteStrips": func() (*Result, error) { return s.ExecuteStrips(inverted, strips) },
		"Frame": func() (*Result, error) {
			res, _, err := cs.Frame(inverted)
			return res, err
		},
		"FrameMultiBase": func() (*Result, error) {
			res, _, err := cs.FrameMultiBase(inverted, 4)
			return res, err
		},
		"FrameStrips": func() (*Result, error) {
			res, _, err := cs.FrameStrips(inverted, strips)
			return res, err
		},
	}
	for name, run := range entries {
		if res, err := run(); !errors.Is(err, ErrInvertedPlane) {
			n := -1
			if res != nil {
				n = len(res.Vertices)
			}
			t.Errorf("%s on an inverted plane: %d vertices of the cut's %d, err = %v; want ErrInvertedPlane", name, n, cut, err)
		}
	}
	if _, st, err := cs.Frame(upright); err != nil || st.Full || st.Fetched != 0 {
		t.Errorf("frame after the refusals: %+v, %v; want the retained state, nothing fetched", st, err)
	}
}

func TestMultiBaseMatchesSingleBaseMesh(t *testing.T) {
	ds, _ := buildDataset(t, 9, "highland")
	s := newTestStore(t, ds)
	model, err := costmodel.FromRTree(s.RTree(), s.DataSpace())
	if err != nil {
		t.Fatal(err)
	}
	qp := geom.QueryPlane{
		R:    geom.Rect{MinX: 0.05, MinY: 0.05, MaxX: 0.95, MaxY: 0.95},
		EMin: eAtPercentile(ds, 0.1), EMax: eAtPercentile(ds, 0.9), Axis: 1,
	}
	sb, err := s.SingleBase(qp)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := s.MultiBase(qp, model, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The live vertex sets must be identical (the interval rule is
	// fetch-pattern independent).
	a, b := sortedIDs(sb.Vertices), sortedIDs(mb.Vertices)
	if len(a) != len(b) {
		t.Fatalf("single-base %d vertices, multi-base %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("multi-base vertex set differs from single-base")
		}
	}
	// Multi-base fetches at most what single-base fetches.
	if mb.FetchedRecords > sb.FetchedRecords {
		t.Fatalf("multi-base fetched %d records, single-base %d", mb.FetchedRecords, sb.FetchedRecords)
	}
	// Edge coverage: multi-base may drop a few boundary witnesses, but
	// must recover nearly all single-base edges.
	sbEdges := make(map[[2]int64]bool, len(sb.Edges))
	for _, e := range sb.Edges {
		sbEdges[e] = true
	}
	covered := 0
	for _, e := range mb.Edges {
		if sbEdges[e] {
			covered++
		}
	}
	if len(sb.Edges) > 0 && float64(covered) < 0.95*float64(len(sb.Edges)) {
		t.Fatalf("multi-base covers %d of %d single-base edges", covered, len(sb.Edges))
	}
}

func TestMultiBaseCheaperOnSteepPlanes(t *testing.T) {
	ds, _ := buildDataset(t, 10, "highland")
	s := newTestStore(t, ds)
	model, err := costmodel.FromRTree(s.RTree(), s.DataSpace())
	if err != nil {
		t.Fatal(err)
	}
	qp := geom.QueryPlane{
		R:    geom.Rect{MinX: 0.05, MinY: 0.05, MaxX: 0.95, MaxY: 0.95},
		EMin: eAtPercentile(ds, 0.05), EMax: eAtPercentile(ds, 0.95), Axis: 1,
	}
	if err := s.DropCaches(); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	sb, err := s.SingleBase(qp)
	if err != nil {
		t.Fatal(err)
	}
	sbDA := s.DiskAccesses()

	if err := s.DropCaches(); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	mb, err := s.MultiBase(qp, model, 0)
	if err != nil {
		t.Fatal(err)
	}
	mbDA := s.DiskAccesses()

	if mb.Strips < 2 {
		t.Skipf("planner chose %d strips; plane not steep enough at this scale", mb.Strips)
	}
	if mbDA > sbDA {
		t.Fatalf("multi-base (%d strips) cost %d DA, single-base %d DA", mb.Strips, mbDA, sbDA)
	}
	if sb.FetchedRecords < mb.FetchedRecords {
		t.Fatalf("multi-base fetched more records (%d) than single-base (%d)", mb.FetchedRecords, sb.FetchedRecords)
	}
}

func TestStoreDiskAccessesGrowWithROI(t *testing.T) {
	ds, _ := buildDataset(t, 10, "crater")
	s := newTestStore(t, ds)
	e := eAtPercentile(ds, 0.3)
	var prev uint64
	for i, roi := range []geom.Rect{
		{MinX: 0.45, MinY: 0.45, MaxX: 0.55, MaxY: 0.55},
		{MinX: 0.3, MinY: 0.3, MaxX: 0.7, MaxY: 0.7},
		{MinX: 0.05, MinY: 0.05, MaxX: 0.95, MaxY: 0.95},
	} {
		if err := s.DropCaches(); err != nil {
			t.Fatal(err)
		}
		s.ResetStats()
		if _, err := s.ViewpointIndependent(roi, e); err != nil {
			t.Fatal(err)
		}
		da := s.DiskAccesses()
		if da == 0 {
			t.Fatal("cold query cost nothing")
		}
		if i > 0 && da < prev {
			t.Fatalf("larger ROI cost fewer disk accesses: %d < %d", da, prev)
		}
		prev = da
	}
}

func TestConnListStatsAreSmall(t *testing.T) {
	// Section 4: similar-LOD connection lists stay small (paper: avg 12)
	// while total connection points are an order of magnitude larger.
	ds, seq := buildDataset(t, 10, "highland")
	st := seq.Stats()
	if st.AvgSimilarLOD > 20 {
		t.Fatalf("average similar-LOD connections %g, expected ~12", st.AvgSimilarLOD)
	}
	if st.AvgTotal < 2*st.AvgSimilarLOD {
		t.Fatalf("total connections %g not much larger than similar-LOD %g", st.AvgTotal, st.AvgSimilarLOD)
	}
	_ = ds
}

// TestCliques: the one triangulator, on graphs small enough to check by
// eye — shared edges, a vertex with no edges, K4 (every triple is a
// clique) — returns exactly the 3-cliques, as ID triples in ascending
// order, and sortEdges hands it what it needs from any pair order.
func TestCliques(t *testing.T) {
	ids := []int64{10, 20, 30, 40, 55}
	pack := func(pairs ...[2]int) []uint64 {
		var es []uint64
		for _, p := range pairs {
			es = append(es, packEdge(p[0], p[1]))
		}
		return es
	}
	tri := func(a, b, c int64) geom.Triangle { return geom.Triangle{A: a, B: b, C: c} }
	for _, tc := range []struct {
		name  string
		edges []uint64
		want  []geom.Triangle
	}{
		{"empty", nil, nil},
		{"path", pack([2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}), nil},
		{"two triangles on an edge, out of order, duplicated",
			pack([2]int{3, 2}, [2]int{0, 1}, [2]int{2, 1}, [2]int{0, 2}, [2]int{1, 3}, [2]int{1, 2}),
			[]geom.Triangle{tri(10, 20, 30), tri(20, 30, 40)}},
		{"K4 beside an isolated vertex",
			pack([2]int{0, 1}, [2]int{0, 2}, [2]int{0, 4}, [2]int{1, 2}, [2]int{1, 4}, [2]int{2, 4}),
			[]geom.Triangle{tri(10, 20, 30), tri(10, 20, 55), tri(10, 30, 55), tri(20, 30, 55)}},
	} {
		sc := new(scratch)
		sorted := sc.sortEdges(tc.edges, len(ids))
		if !slices.IsSorted(sorted) || len(slices.Compact(slices.Clone(sorted))) != len(sorted) {
			t.Fatalf("%s: sortEdges left %x", tc.name, sorted)
		}
		if got := sc.cliques(nil, sorted, ids); !slices.Equal(got, tc.want) {
			t.Errorf("%s: cliques = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestIDIndex: every listed ID maps to its position and nothing else maps
// anywhere, for lists from empty up through sizes straddling a table
// doubling, IDs dense, sparse and at the top of the range.
func TestIDIndex(t *testing.T) {
	for _, n := range []int{0, 1, 2, 511, 512, 513, 3000} {
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = int64(i) * 7
		}
		if n > 2 {
			ids[n-2], ids[n-1] = math.MaxInt64-1, math.MaxInt64
		}
		idx := new(scratch).indexIDs(ids)
		if len(idx.slots) < 2*n || len(idx.slots) > 4*n+2 {
			t.Fatalf("%d IDs: %d slots", n, len(idx.slots))
		}
		for i, id := range ids {
			if got := idx.lookup(id); got != i {
				t.Fatalf("%d IDs: lookup(%d) = %d, want %d", n, id, got, i)
			}
		}
		for _, id := range []int64{-1, 1, 6, 8, int64(n) * 7, math.MaxInt64 - 2, math.MinInt64} {
			if slices.Contains(ids, id) {
				continue
			}
			if got := idx.lookup(id); got != -1 {
				t.Fatalf("%d IDs: lookup(%d) = %d for an absent ID", n, id, got)
			}
		}
	}
}

func TestQueryAboveMaxLODReturnsRoot(t *testing.T) {
	ds, _ := buildDataset(t, 7, "highland")
	s := newTestStore(t, ds)
	res, err := s.ViewpointIndependent(fullRect(), s.MaxE()*100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vertices) != len(ds.Tree.Roots) {
		t.Fatalf("query above max LOD returned %d vertices, want %d root(s)",
			len(res.Vertices), len(ds.Tree.Roots))
	}
	for _, root := range ds.Tree.Roots {
		if _, ok := res.Vertices[root]; !ok {
			t.Fatalf("root %d missing", root)
		}
	}
}

func BenchmarkViewpointIndependent(b *testing.B) {
	g, _ := heightfield.Named("highland", 65, 5)
	m := mesh.FromGrid(g)
	seq, err := simplify.Run(m, simplify.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ds, err := FromSequence(seq)
	if err != nil {
		b.Fatal(err)
	}
	s, err := BuildStore(ds, StorePools{})
	if err != nil {
		b.Fatal(err)
	}
	var es []float64
	for i := range ds.Tree.Nodes {
		if !ds.Tree.Nodes[i].IsLeaf() {
			es = append(es, ds.Tree.Nodes[i].ELow)
		}
	}
	sort.Float64s(es)
	e := es[len(es)/2]
	roi := geom.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.8, MaxY: 0.8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.DropCaches(); err != nil {
			b.Fatal(err)
		}
		s.ResetStats()
		if _, err := s.ViewpointIndependent(roi, e); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.DiskAccesses()), "DA/query")
}

func BenchmarkSingleBase(b *testing.B) {
	g, _ := heightfield.Named("highland", 65, 5)
	m := mesh.FromGrid(g)
	seq, err := simplify.Run(m, simplify.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ds, err := FromSequence(seq)
	if err != nil {
		b.Fatal(err)
	}
	s, err := BuildStore(ds, StorePools{})
	if err != nil {
		b.Fatal(err)
	}
	var es []float64
	for i := range ds.Tree.Nodes {
		if !ds.Tree.Nodes[i].IsLeaf() {
			es = append(es, ds.Tree.Nodes[i].ELow)
		}
	}
	sort.Float64s(es)
	qp := geom.QueryPlane{
		R:    geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.9, MaxY: 0.9},
		EMin: es[len(es)/2], EMax: es[len(es)*95/100], Axis: 1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.DropCaches(); err != nil {
			b.Fatal(err)
		}
		s.ResetStats()
		if _, err := s.SingleBase(qp); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.DiskAccesses()), "DA/query")
}
