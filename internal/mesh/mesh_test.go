package mesh

import (
	"strings"
	"testing"

	"dmesh/internal/geom"
	"dmesh/internal/heightfield"
)

func gridMesh(t *testing.T, size int) *Mesh {
	t.Helper()
	g := heightfield.Highland(size, 3)
	return FromGrid(g)
}

func TestFromGridCounts(t *testing.T) {
	for _, size := range []int{2, 3, 5, 9} {
		m := gridMesh(t, size)
		wantV := size * size
		wantT := 2 * (size - 1) * (size - 1)
		if len(m.Positions) != wantV {
			t.Errorf("size %d: vertices = %d, want %d", size, len(m.Positions), wantV)
		}
		if m.NumTriangles() != wantT {
			t.Errorf("size %d: triangles = %d, want %d", size, m.NumTriangles(), wantT)
		}
	}
}

func TestFromGridManifold(t *testing.T) {
	m := gridMesh(t, 9)
	if err := m.CheckManifold(); err != nil {
		t.Fatal(err)
	}
}

func TestEulerCharacteristicOfDisk(t *testing.T) {
	// A rectangular terrain patch is topologically a disk: V - E + F = 1.
	for _, size := range []int{2, 4, 8} {
		m := gridMesh(t, size)
		if chi := len(m.UsedVertices()) - len(m.Edges()) + len(m.Tris); chi != 1 {
			t.Errorf("size %d: Euler characteristic = %d, want 1", size, chi)
		}
	}
}

func TestAdjacencySymmetric(t *testing.T) {
	m := gridMesh(t, 6)
	adj := m.Adjacency()
	for v, ns := range adj {
		for _, u := range ns {
			found := false
			for _, w := range adj[u] {
				if w == int64(v) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("adjacency asymmetric: %d->%d but not back", v, u)
			}
		}
	}
	// A strict interior vertex of a grid has degree 6 on average
	// (4 axis neighbors + diagonals from cell splits); every vertex has
	// degree >= 2.
	for v, ns := range adj {
		if ns != nil && len(ns) < 2 {
			t.Errorf("vertex %d has degree %d", v, len(ns))
		}
	}
}

func TestEdgesUseCounts(t *testing.T) {
	m := gridMesh(t, 4)
	for e, c := range m.Edges() {
		if c < 1 || c > 2 {
			t.Fatalf("edge %v used %d times", e, c)
		}
	}
}

func TestBoundaryVertices(t *testing.T) {
	size := 5
	m := gridMesh(t, size)
	b := map[int64]bool{} // ends of the edges only one triangle uses
	for e, c := range m.Edges() {
		if c == 1 {
			b[e[0]], b[e[1]] = true, true
		}
	}
	// A size x size grid has 4*(size-1) boundary vertices.
	want := 4 * (size - 1)
	if len(b) != want {
		t.Fatalf("boundary count = %d, want %d", len(b), want)
	}
	// Corner (0,0) has ID 0 and must be a boundary vertex; the center must
	// not.
	if !b[0] {
		t.Error("corner must be boundary")
	}
	center := int64(size * size / 2)
	if b[center] {
		t.Error("center must not be boundary")
	}
}

func TestCheckManifoldCatchesViolations(t *testing.T) {
	m := &Mesh{
		Positions: []geom.Point3{{}, {X: 1}, {Y: 1}, {X: 1, Y: 1}},
		Tris:      []geom.Triangle{{A: 0, B: 1, C: 2}},
	}
	if err := m.CheckManifold(); err != nil {
		t.Fatalf("valid mesh rejected: %v", err)
	}
	bad := &Mesh{Positions: m.Positions, Tris: []geom.Triangle{{A: 0, B: 0, C: 1}}}
	if err := bad.CheckManifold(); err == nil {
		t.Error("degenerate triangle not caught")
	}
	oob := &Mesh{Positions: m.Positions, Tris: []geom.Triangle{{A: 0, B: 1, C: 9}}}
	if err := oob.CheckManifold(); err == nil {
		t.Error("out-of-range vertex not caught")
	}
	tripled := &Mesh{
		Positions: m.Positions,
		Tris: []geom.Triangle{
			{A: 0, B: 1, C: 2}, {A: 0, B: 1, C: 3}, {A: 1, B: 0, C: 2},
		},
	}
	if err := tripled.CheckManifold(); err == nil {
		t.Error("edge shared by 3 triangles not caught")
	}
}

func TestUsedVertices(t *testing.T) {
	m := &Mesh{
		Positions: make([]geom.Point3, 10),
		Tris:      []geom.Triangle{{A: 1, B: 3, C: 5}},
	}
	used := m.UsedVertices()
	if len(used) != 3 || !used[1] || !used[3] || !used[5] {
		t.Fatalf("UsedVertices = %v", used)
	}
}

func TestWriteOBJ(t *testing.T) {
	m := &Mesh{
		Positions: []geom.Point3{{}, {X: 1}, {Y: 1}, {X: 5, Y: 5, Z: 5}}, // vertex 3 unused
		Tris:      []geom.Triangle{{A: 0, B: 1, C: 2}},
	}
	var sb strings.Builder
	if err := m.WriteOBJ(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Count(out, "\nf ")+boolToInt(strings.HasPrefix(out, "f ")) != 1 {
		t.Errorf("expected 1 face line:\n%s", out)
	}
	if strings.Contains(out, "v 5 5 5") {
		t.Error("unused vertex must not be emitted")
	}
	if !strings.Contains(out, "f 1 2 3") {
		t.Errorf("face must use dense 1-based indices:\n%s", out)
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
