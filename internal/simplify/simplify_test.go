package simplify

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dmesh/internal/heightfield"
	"dmesh/internal/mesh"
)

func buildSeq(t *testing.T, size int, opts Options) *Sequence {
	t.Helper()
	g := heightfield.Highland(size, 5)
	m := mesh.FromGrid(g)
	seq, err := Run(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

func TestRunCollapsesToRoot(t *testing.T) {
	seq := buildSeq(t, 9, Options{})
	if seq.BaseVertices != 81 {
		t.Fatalf("BaseVertices = %d", seq.BaseVertices)
	}
	// Every collapse removes one live vertex.
	if got, want := len(seq.Collapses), seq.BaseVertices-len(seq.Roots); got != want {
		t.Fatalf("collapses = %d, want %d (roots = %d)", got, want, len(seq.Roots))
	}
	if len(seq.Roots) != 1 {
		t.Errorf("expected full collapse to a single root, got %d roots", len(seq.Roots))
	}
	if got, want := seq.NumVertices(), seq.BaseVertices+len(seq.Collapses); got != want {
		t.Fatalf("NumVertices = %d, want %d", got, want)
	}
}

func TestCollapseIDsAreSequential(t *testing.T) {
	seq := buildSeq(t, 7, Options{})
	for i, c := range seq.Collapses {
		if got, want := c.New, int64(seq.BaseVertices+i); got != want {
			t.Fatalf("collapse %d creates vertex %d, want %d", i, got, want)
		}
		if c.Child1 >= c.New || c.Child2 >= c.New {
			t.Fatalf("collapse %d: children %d,%d must precede parent %d", i, c.Child1, c.Child2, c.New)
		}
		if c.Child1 == c.Child2 {
			t.Fatalf("collapse %d: identical children", i)
		}
		if c.Err < 0 {
			t.Fatalf("collapse %d: negative error %g", i, c.Err)
		}
	}
}

func TestWingsAreCommonNeighborsAtCollapseTime(t *testing.T) {
	seq := buildSeq(t, 6, Options{})
	for i, c := range seq.Collapses {
		adj, err := seq.AdjacencyAtStep(i)
		if err != nil {
			t.Fatal(err)
		}
		common := intersectSorted(adj[c.Child1], adj[c.Child2])
		var wings []int64
		if c.Wing1 != NoWing {
			wings = append(wings, c.Wing1)
		}
		if c.Wing2 != NoWing {
			wings = append(wings, c.Wing2)
		}
		if !reflect.DeepEqual(common, wings) {
			if len(common) == 0 && len(wings) == 0 {
				continue
			}
			t.Fatalf("collapse %d: wings %v, common neighbors %v", i, wings, common)
		}
		if len(common) > 2 {
			t.Fatalf("collapse %d violates the link condition: %v", i, common)
		}
	}
}

func intersectSorted(a, b []int64) []int64 {
	var out []int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// The edge lifetime law (DESIGN.md decision 1): at every step of the
// sequence, every live edge (u, v) appears in both endpoints' connection
// lists. This is what lets Direct Mesh triangulate without ancestors.
func TestConnListsCoverAllLiveEdges(t *testing.T) {
	seq := buildSeq(t, 6, Options{})
	connSet := make([]map[int64]bool, len(seq.ConnLists))
	for v, l := range seq.ConnLists {
		s := make(map[int64]bool, len(l))
		for _, u := range l {
			s[u] = true
		}
		connSet[v] = s
	}
	for step := 0; step <= len(seq.Collapses); step += 3 {
		adj, err := seq.AdjacencyAtStep(step)
		if err != nil {
			t.Fatal(err)
		}
		for v, ns := range adj {
			for _, u := range ns {
				if !connSet[v][u] {
					t.Fatalf("step %d: edge (%d,%d) missing from connection list of %d", step, v, u, v)
				}
				if !connSet[u][v] {
					t.Fatalf("step %d: connection lists not symmetric for (%d,%d)", step, v, u)
				}
			}
		}
	}
}

// Conversely, every connection-list entry must be a live edge at some step
// (no spurious entries).
func TestConnListEntriesAreRealEdges(t *testing.T) {
	seq := buildSeq(t, 5, Options{})
	everAdj := make(map[[2]int64]bool)
	for step := 0; step <= len(seq.Collapses); step++ {
		adj, err := seq.AdjacencyAtStep(step)
		if err != nil {
			t.Fatal(err)
		}
		for v, ns := range adj {
			for _, u := range ns {
				everAdj[edgeKey(v, u)] = true
			}
		}
	}
	for v, l := range seq.ConnLists {
		for _, u := range l {
			if !everAdj[edgeKey(int64(v), u)] {
				t.Fatalf("connection list of %d contains %d, never adjacent", v, u)
			}
		}
	}
}

func TestErrorsMonotone(t *testing.T) {
	seq := buildSeq(t, 9, Options{})
	last := 0.0
	for i, c := range seq.Collapses {
		if c.Err < last {
			t.Fatalf("collapse %d error %g below previous %g", i, c.Err, last)
		}
		last = c.Err
	}
}

func TestStepForLOD(t *testing.T) {
	seq := buildSeq(t, 8, Options{})
	if got := seq.StepForLOD(-1); got != 0 {
		t.Fatalf("StepForLOD(-1) = %d", got)
	}
	last := seq.Collapses[len(seq.Collapses)-1].Err
	if got := seq.StepForLOD(last); got != len(seq.Collapses) {
		t.Fatalf("StepForLOD(max) = %d, want %d", got, len(seq.Collapses))
	}
	// Every returned step is consistent: all collapses before it have
	// Err <= e, the one at it (if any) has Err > e.
	for _, e := range []float64{0, 1e-9, 0.001, 0.1, last / 2} {
		k := seq.StepForLOD(e)
		if k > 0 && seq.Collapses[k-1].Err > e {
			t.Fatalf("collapse %d has Err %g > e %g", k-1, seq.Collapses[k-1].Err, e)
		}
		if k < len(seq.Collapses) && seq.Collapses[k].Err <= e {
			t.Fatalf("collapse %d has Err %g <= e %g", k, seq.Collapses[k].Err, e)
		}
	}
}

func TestDeterministic(t *testing.T) {
	a := buildSeq(t, 7, Options{})
	b := buildSeq(t, 7, Options{})
	if !reflect.DeepEqual(a.Collapses, b.Collapses) {
		t.Fatal("same input must produce identical collapse sequences")
	}
	if !reflect.DeepEqual(a.ConnLists, b.ConnLists) {
		t.Fatal("connection lists must be deterministic")
	}
}

func TestVerticalDistanceMetric(t *testing.T) {
	seq := buildSeq(t, 6, Options{Metric: VerticalDistance})
	if len(seq.Roots) != 1 {
		t.Fatalf("vertical-distance run left %d roots", len(seq.Roots))
	}
	for i, c := range seq.Collapses {
		if c.Err < 0 {
			t.Fatalf("collapse %d: negative error", i)
		}
	}
}

func TestAdjacencyAtStepBounds(t *testing.T) {
	seq := buildSeq(t, 4, Options{})
	if _, err := seq.AdjacencyAtStep(-1); err == nil {
		t.Error("negative step must error")
	}
	if _, err := seq.AdjacencyAtStep(len(seq.Collapses) + 1); err == nil {
		t.Error("step past end must error")
	}
	adj, err := seq.AdjacencyAtStep(len(seq.Collapses))
	if err != nil {
		t.Fatal(err)
	}
	if len(adj) != len(seq.Roots) {
		t.Fatalf("final adjacency has %d vertices, want %d roots", len(adj), len(seq.Roots))
	}
}

func TestAdjacencyAtStepFullResolutionMatchesMesh(t *testing.T) {
	g := heightfield.Crater(6, 9)
	m := mesh.FromGrid(g)
	seq, err := Run(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	adj, err := seq.AdjacencyAtStep(0)
	if err != nil {
		t.Fatal(err)
	}
	want := m.Adjacency()
	for v, ns := range want {
		if ns == nil {
			continue
		}
		if !reflect.DeepEqual(adj[int64(v)], ns) {
			t.Fatalf("vertex %d adjacency mismatch: %v vs %v", v, adj[int64(v)], ns)
		}
	}
}

func TestRunRejectsInvalidMesh(t *testing.T) {
	g := heightfield.Highland(3, 1)
	m := mesh.FromGrid(g)
	m.Tris[0].B = m.Tris[0].A // make degenerate
	if _, err := Run(m, Options{}); err == nil {
		t.Fatal("invalid mesh must be rejected")
	}
}

func TestStatsSimilarVsTotal(t *testing.T) {
	seq := buildSeq(t, 9, Options{})
	st := seq.Stats()
	if st.AvgSimilarLOD <= 0 {
		t.Fatal("average similar-LOD connection count must be positive")
	}
	// The paper reports ~12 similar-LOD connections versus 180-840 total;
	// at any scale the total must strictly dominate the similar-LOD count.
	if st.AvgTotal <= st.AvgSimilarLOD {
		t.Errorf("total (%g) must exceed similar-LOD (%g)", st.AvgTotal, st.AvgSimilarLOD)
	}
	if st.MaxSimilarLOD <= 0 {
		t.Error("max similar-LOD must be positive")
	}
}

func TestPositionsFinite(t *testing.T) {
	seq := buildSeq(t, 8, Options{})
	for i, p := range seq.Positions {
		if p != p || p.X != p.X || p.Y != p.Y || p.Z != p.Z { // NaN check
			t.Fatalf("position %d is NaN: %v", i, p)
		}
	}
	// Generated points should stay inside (or very near) the unit square:
	// the boundary quadrics keep the footprint from drifting.
	for i := seq.BaseVertices; i < len(seq.Positions); i++ {
		p := seq.Positions[i]
		if p.X < -0.25 || p.X > 1.25 || p.Y < -0.25 || p.Y > 1.25 {
			t.Fatalf("generated point %d drifted far outside the domain: %v", i, p)
		}
	}
}

// A non-finite height makes every incident edge's error NaN, under which
// the candidate order is not an order: the output would depend on the heap's
// internals. Run refuses the mesh instead, naming the vertex.
func TestRunRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		m := mesh.FromGrid(heightfield.Highland(5, 1))
		m.Positions[7].Z = bad
		_, err := Run(m, Options{})
		if !errors.Is(err, ErrNonFinite) {
			t.Fatalf("height %v: err = %v, want ErrNonFinite", bad, err)
		}
		if !strings.Contains(err.Error(), "vertex 7") {
			t.Errorf("height %v: error %q does not name vertex 7", bad, err)
		}
	}
}

// The work Run does is linear in what the sequence itself contains, shown
// by counting instead of timing. Pushes, pops and stale pops per collapse
// are properties of the sequence (they rise slowly with mesh size under QEM,
// whose flat-region collapses build higher-degree vertices on a larger
// terrain); the one count the implementation owns is how many deferred
// entries it looks at, and that is bounded per deferral, not per collapse
// times the size of the deferred set.
func TestWorkPerCollapseDoesNotGrow(t *testing.T) {
	for _, metric := range []Metric{QEM, VerticalDistance} {
		var per [2][3]float64 // pushes, pops, stale pops per collapse at 65² and at 129²
		for i, size := range []int{65, 129} {
			m := mesh.FromGrid(heightfield.Highland(size, 5))
			seq, wk, err := run(m, Options{Metric: metric})
			if err != nil {
				t.Fatal(err)
			}
			// Every edge that ever lived sits in both endpoints' connection
			// lists, and is pushed exactly once; the only other pushes are
			// retries of deferred candidates.
			edges := 0
			for _, l := range seq.ConnLists {
				edges += len(l)
			}
			if edges%2 != 0 || wk.pushes != edges/2+wk.retries {
				t.Errorf("metric %d size %d: %d pushes, want %d edges + %d retries", metric, size, wk.pushes, edges/2, wk.retries)
			}
			// Every pop is a collapse, a deferral or stale.
			if want := len(seq.Collapses) + wk.deferrals + wk.stale; wk.pops != want {
				t.Errorf("metric %d size %d: %d pops, want %d", metric, size, wk.pops, want)
			}
			// A deferral files two list entries; each is looked at at most
			// once, and at most one of the two leads to a retry.
			if wk.visited > 2*wk.deferrals || wk.retries > wk.deferrals || wk.retries > wk.visited {
				t.Errorf("metric %d size %d: visited %d, retried %d of %d deferrals", metric, size, wk.visited, wk.retries, wk.deferrals)
			}
			n := float64(len(seq.Collapses))
			per[i] = [3]float64{float64(wk.pushes) / n, float64(wk.pops) / n, float64(wk.stale) / n}
		}
		for k, name := range []string{"pushes", "pops", "stale pops"} {
			if per[1][k] > 1.5*per[0][k] {
				t.Errorf("metric %d: %s per collapse %.2f at 129² against %.2f at 65²", metric, name, per[1][k], per[0][k])
			}
		}
	}
}

// One whole Run per iteration; ns/collapse is the number that has to stay
// flat as the terrain grows (allocs/collapse shows what the per-collapse
// lists cost).
func BenchmarkRun(b *testing.B) {
	for _, size := range []int{65, 129, 257} {
		for _, mt := range metricCases {
			b.Run(fmt.Sprintf("%d/%s", size, mt.name), func(b *testing.B) {
				m := mesh.FromGrid(heightfield.Highland(size, 5))
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				mallocs, collapses := ms.Mallocs, 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					seq, err := Run(m, Options{Metric: mt.m})
					if err != nil {
						b.Fatal(err)
					}
					collapses += len(seq.Collapses)
				}
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(collapses), "ns/collapse")
				b.ReportMetric(float64(ms.Mallocs-mallocs)/float64(collapses), "allocs/collapse")
			})
		}
	}
}
