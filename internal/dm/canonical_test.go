package dm

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"dmesh/internal/geom"
)

// TestCanonicalMeshShuffled pins CanonicalMesh's bytes against a spelling
// written out by hand, for the ascending input every producer emits (the
// branch that skips the sort) and for shuffled, endpoint-flipped,
// vertex-rotated spellings of the same mesh (the branch that sorts).
func TestCanonicalMeshShuffled(t *testing.T) {
	verts := map[int64]geom.Point3{1: {X: 0.5, Y: 0.25, Z: math.Pi}, 2: {X: 1}, 5: {Y: 1}, 9: {Z: -2}}
	edges := [][2]int64{{1, 2}, {1, 5}, {2, 5}, {2, 9}, {5, 9}}
	tris := []geom.Triangle{{A: 1, B: 2, C: 5}, {A: 2, B: 5, C: 9}}

	var want []byte
	u64 := func(vs ...uint64) {
		for _, v := range vs {
			want = binary.LittleEndian.AppendUint64(want, v)
		}
	}
	u64(4)
	for _, id := range []int64{1, 2, 5, 9} {
		p := verts[id]
		u64(uint64(id), math.Float64bits(p.X), math.Float64bits(p.Y), math.Float64bits(p.Z))
	}
	u64(5, 1, 2, 1, 5, 2, 5, 2, 9, 5, 9)
	u64(2, 1, 2, 5, 2, 5, 9)

	if got := CanonicalMesh(&Result{Vertices: verts, Edges: edges, Triangles: tris}); !bytes.Equal(got, want) {
		t.Fatalf("ascending input:\n got  %x\n want %x", got, want)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		es, ts := append([][2]int64{}, edges...), append([]geom.Triangle{}, tris...)
		rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
		rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
		for i := range es {
			if rng.Intn(2) == 0 {
				es[i][0], es[i][1] = es[i][1], es[i][0]
			}
		}
		for i, tr := range ts {
			if rng.Intn(2) == 0 {
				ts[i] = geom.Triangle{A: tr.C, B: tr.A, C: tr.B}
			}
		}
		if got := CanonicalMesh(&Result{Vertices: verts, Edges: es, Triangles: ts}); !bytes.Equal(got, want) {
			t.Fatalf("trial %d (edges %v, triangles %v):\n got  %x\n want %x", trial, es, ts, got, want)
		}
	}
}
