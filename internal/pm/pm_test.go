package pm

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"dmesh/internal/geom"
	"dmesh/internal/heightfield"
	"dmesh/internal/mesh"
	"dmesh/internal/simplify"
)

func buildTree(t testing.TB, size int) (*Tree, *simplify.Sequence) {
	t.Helper()
	g := heightfield.Highland(size, 5)
	m := mesh.FromGrid(g)
	seq, err := simplify.Run(m, simplify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := FromSequence(seq)
	if err != nil {
		t.Fatal(err)
	}
	return tree, seq
}

// fullRect generously covers the whole domain, including generated points
// that drift slightly outside the unit square.
func fullRect() geom.Rect { return geom.Rect{MinX: -1, MinY: -1, MaxX: 2, MaxY: 2} }

// eAtPercentile returns the p-th percentile (0..1) of internal-node ELow
// values. Raw QEM errors are extremely skewed, so percentiles — not
// fractions of the maximum — give LOD values where the mesh has
// interesting density.
func eAtPercentile(tree *Tree, p float64) float64 {
	var es []float64
	for i := range tree.Nodes {
		if !tree.Nodes[i].IsLeaf() {
			es = append(es, tree.Nodes[i].ELow)
		}
	}
	sort.Float64s(es)
	idx := int(p * float64(len(es)-1))
	return es[idx]
}

func TestFromSequenceInvariants(t *testing.T) {
	tree, seq := buildTree(t, 9)
	if tree.Len() != seq.NumVertices() {
		t.Fatalf("Len = %d, want %d", tree.Len(), seq.NumVertices())
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tree.MaxE <= 0 {
		t.Fatalf("MaxE = %g", tree.MaxE)
	}
	// Leaves have ELow 0.
	for i := 0; i < seq.BaseVertices; i++ {
		if tree.Nodes[i].ELow != 0 {
			t.Fatalf("leaf %d has ELow %g", i, tree.Nodes[i].ELow)
		}
	}
}

func TestCutProperty(t *testing.T) {
	tree, _ := buildTree(t, 8)
	for _, frac := range []float64{0, 0.01, 0.1, 0.3, 0.5, 0.9, 0.999} {
		if err := tree.ValidateCut(frac * tree.MaxE); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFrontierFullResolution(t *testing.T) {
	tree, seq := buildTree(t, 8)
	frontier := tree.FrontierUniform(fullRect(), 0)
	// At e = 0 the frontier is exactly the original points (the paper's
	// condition: all leaf nodes form the highest-LOD approximation).
	if len(frontier) != seq.BaseVertices {
		t.Fatalf("frontier at e=0 has %d vertices, want %d", len(frontier), seq.BaseVertices)
	}
	for _, id := range frontier {
		if !tree.Nodes[id].IsLeaf() {
			t.Fatalf("non-leaf %d in full-resolution frontier", id)
		}
	}
}

func TestFrontierCoarsest(t *testing.T) {
	tree, _ := buildTree(t, 8)
	frontier := tree.FrontierUniform(fullRect(), tree.MaxE)
	if len(frontier) != len(tree.Roots) {
		t.Fatalf("frontier at MaxE has %d vertices, want %d roots", len(frontier), len(tree.Roots))
	}
}

func TestFrontierMatchesIntervals(t *testing.T) {
	// Over the full domain, selective refinement must return exactly the
	// nodes whose LOD interval contains e — the equivalence that Direct
	// Mesh is built on.
	tree, _ := buildTree(t, 9)
	for _, pct := range []float64{0.2, 0.5, 0.8, 0.95} {
		e := eAtPercentile(tree, pct)
		got := append([]int64(nil), tree.FrontierUniform(fullRect(), e)...)
		var want []int64
		for i := range tree.Nodes {
			if tree.Nodes[i].Interval().Contains(e) {
				want = append(want, int64(i))
			}
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			t.Fatalf("e=%g: frontier %d nodes, interval cut %d", e, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("e=%g: frontier differs from interval cut at %d", e, i)
			}
		}
	}
}

func TestFrontierROISubset(t *testing.T) {
	tree, _ := buildTree(t, 9)
	roi := geom.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.6, MaxY: 0.6}
	e := eAtPercentile(tree, 0.5)
	frontier := tree.FrontierUniform(roi, e)
	if len(frontier) == 0 {
		t.Fatal("empty frontier for interior ROI")
	}
	full := tree.FrontierUniform(fullRect(), e)
	fullSet := make(map[int64]bool, len(full))
	for _, id := range full {
		fullSet[id] = true
	}
	for _, id := range frontier {
		n := tree.Nodes[id]
		if !roi.ContainsPoint(n.Pos.XY()) {
			t.Fatalf("frontier vertex %d outside ROI", id)
		}
		// Inside the ROI, refinement depth matches the full query: every
		// ROI frontier vertex is also a full-domain frontier vertex.
		if !fullSet[id] {
			t.Fatalf("ROI frontier vertex %d not in full frontier", id)
		}
	}
}

func TestExpandedAreAncestorsOfFrontier(t *testing.T) {
	tree, _ := buildTree(t, 8)
	roi := geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.7, MaxY: 0.7}
	e := eAtPercentile(tree, 0.5)
	expanded := tree.ExpandedUniform(roi, e)
	for _, id := range expanded {
		n := tree.Nodes[id]
		if n.IsLeaf() {
			t.Fatalf("leaf %d in expanded set", id)
		}
		if n.ELow <= e {
			t.Fatalf("node %d with ELow %g <= e %g was expanded", id, n.ELow, e)
		}
	}
}

func TestFrontierPlane(t *testing.T) {
	tree, _ := buildTree(t, 9)
	qp := geom.QueryPlane{
		R:    geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.9, MaxY: 0.9},
		EMin: eAtPercentile(tree, 0.2), EMax: eAtPercentile(tree, 0.9), Axis: 1,
	}
	frontier := tree.FrontierPlane(qp)
	if len(frontier) == 0 {
		t.Fatal("empty viewpoint-dependent frontier")
	}
	// The near (low-y) half must be at least as refined as the far half:
	// compare average ELow.
	var nearSum, farSum float64
	var nearN, farN int
	for _, id := range frontier {
		n := tree.Nodes[id]
		if n.Pos.Y < 0.5 {
			nearSum += n.ELow
			nearN++
		} else {
			farSum += n.ELow
			farN++
		}
	}
	if nearN == 0 || farN == 0 {
		t.Skip("degenerate split")
	}
	if nearSum/float64(nearN) > farSum/float64(farN) {
		t.Fatalf("near half coarser (%g) than far half (%g)", nearSum/float64(nearN), farSum/float64(farN))
	}
}

func TestRecordRoundTrip(t *testing.T) {
	tree, _ := buildTree(t, 6)
	buf := make([]byte, RecordSize)
	for i := range tree.Nodes {
		n := &tree.Nodes[i]
		EncodeRecord(n, buf)
		got := DecodeRecord(buf)
		if got != *n {
			t.Fatalf("round trip mismatch for node %d:\n got %+v\nwant %+v", i, got, *n)
		}
	}
}

func TestRecordRoundTripInfinity(t *testing.T) {
	n := Node{ID: 1, EHigh: math.Inf(1), Parent: None, Child1: None, Child2: None, Wing1: None, Wing2: None}
	buf := make([]byte, RecordSize)
	EncodeRecord(&n, buf)
	got := DecodeRecord(buf)
	if !math.IsInf(got.EHigh, 1) {
		t.Fatalf("EHigh round trip lost infinity: %g", got.EHigh)
	}
}

func TestStoreUniformMatchesInMemory(t *testing.T) {
	tree, _ := buildTree(t, 9)
	store, err := BuildStore(tree)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		r geom.Rect
		e float64
	}{
		{fullRect(), eAtPercentile(tree, 0.7)},
		{fullRect(), eAtPercentile(tree, 0.2)},
		{geom.Rect{MinX: 0.2, MinY: 0.3, MaxX: 0.7, MaxY: 0.8}, eAtPercentile(tree, 0.5)},
		{geom.Rect{MinX: 0.4, MinY: 0.4, MaxX: 0.6, MaxY: 0.6}, eAtPercentile(tree, 0.1)},
	}
	for _, c := range cases {
		want := tree.FrontierUniform(c.r, c.e)
		res, err := store.QueryUniform(c.r, c.e)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Frontier) != len(want) {
			t.Fatalf("r=%v e=%g: store frontier %d, in-memory %d", c.r, c.e, len(res.Frontier), len(want))
		}
		for _, id := range want {
			fv, ok := res.Frontier[id]
			if !ok {
				t.Fatalf("store frontier missing vertex %d", id)
			}
			if fv.Pos != tree.Nodes[id].Pos {
				t.Fatalf("vertex %d position mismatch", id)
			}
		}
	}
}

func TestStorePlaneMatchesInMemory(t *testing.T) {
	tree, _ := buildTree(t, 9)
	store, err := BuildStore(tree)
	if err != nil {
		t.Fatal(err)
	}
	qp := geom.QueryPlane{
		R:    geom.Rect{MinX: 0.1, MinY: 0.2, MaxX: 0.8, MaxY: 0.9},
		EMin: eAtPercentile(tree, 0.3), EMax: eAtPercentile(tree, 0.9), Axis: 1,
	}
	want := tree.FrontierPlane(qp)
	res, err := store.QueryPlane(qp)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frontier) != len(want) {
		t.Fatalf("store frontier %d, in-memory %d", len(res.Frontier), len(want))
	}
	for _, id := range want {
		if _, ok := res.Frontier[id]; !ok {
			t.Fatalf("store frontier missing vertex %d", id)
		}
	}
}

func TestStoreCountsDiskAccesses(t *testing.T) {
	tree, _ := buildTree(t, 9)
	store, err := BuildStore(tree)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.DropCaches(); err != nil {
		t.Fatal(err)
	}
	store.ResetStats()
	roi := geom.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.7, MaxY: 0.7}
	res, err := store.QueryUniform(roi, eAtPercentile(tree, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	small := store.DiskAccesses()
	if small == 0 {
		t.Fatal("cold query reported zero disk accesses")
	}
	if res.FetchedNodes == 0 {
		t.Fatal("query fetched nothing")
	}

	// A finer query over a larger region must cost more.
	if err := store.DropCaches(); err != nil {
		t.Fatal(err)
	}
	store.ResetStats()
	if _, err := store.QueryUniform(fullRect(), eAtPercentile(tree, 0.05)); err != nil {
		t.Fatal(err)
	}
	large := store.DiskAccesses()
	if large <= small {
		t.Fatalf("larger+finer query (%d DA) should cost more than smaller query (%d DA)", large, small)
	}
}

func TestStoreChasesOutOfROIAncestors(t *testing.T) {
	// With a small ROI, most ancestors sit outside it and must be chased
	// by ID — the inefficiency the paper attributes to PM.
	tree, _ := buildTree(t, 9)
	store, err := BuildStore(tree)
	if err != nil {
		t.Fatal(err)
	}
	roi := geom.Rect{MinX: 0.05, MinY: 0.05, MaxX: 0.2, MaxY: 0.2}
	res, err := store.QueryUniform(roi, eAtPercentile(tree, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if res.ChasedNodes == 0 {
		t.Fatal("expected by-ID chasing for a corner ROI")
	}
}

// Property: for arbitrary LOD values (including negatives and values past
// the maximum), the interval cut is a partition of the leaves: every
// leaf-to-root path crosses it exactly once for e >= 0, and zero times
// only when e < 0.
func TestCutPropertyQuick(t *testing.T) {
	tree, _ := buildTree(t, 8)
	f := func(raw float64) bool {
		e := math.Abs(raw)
		if math.IsNaN(e) || math.IsInf(e, 0) {
			return true
		}
		// Scale into an interesting range around the distribution.
		e = math.Mod(e, tree.MaxE*1.5)
		return tree.ValidateCut(e) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
