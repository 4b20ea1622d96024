package dm

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"

	"dmesh/internal/geom"
)

// CanonicalMesh serializes a query answer into one deterministic byte
// string: vertices sorted by ID with raw IEEE-754 coordinate bits,
// edges normalized low-high and sorted, triangles canonicalized and
// sorted. Two answers are the same mesh — positions bit for bit — iff
// their canonical serializations are equal, which is the equality the
// exactness properties (cluster vs single node, streamed vs direct)
// are stated in.
func CanonicalMesh(res *Result) []byte {
	var buf []byte
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }

	ids := sortedIDs(res.Vertices)
	u64(uint64(len(ids)))
	for _, id := range ids {
		p := res.Vertices[id]
		u64(uint64(id))
		u64(math.Float64bits(p.X))
		u64(math.Float64bits(p.Y))
		u64(math.Float64bits(p.Z))
	}

	edges := make([][2]int64, 0, len(res.Edges))
	for _, e := range res.Edges {
		if e[0] > e[1] {
			e[0], e[1] = e[1], e[0]
		}
		edges = append(edges, e)
	}
	// Every producer of a Result emits both lists already in this order;
	// the sort is for hand-built ones.
	if !slices.IsSortedFunc(edges, CompareEdges) {
		slices.SortFunc(edges, CompareEdges)
	}
	u64(uint64(len(edges)))
	for _, e := range edges {
		u64(uint64(e[0]))
		u64(uint64(e[1]))
	}

	tris := make([]geom.Triangle, 0, len(res.Triangles))
	for _, t := range res.Triangles {
		tris = append(tris, t.Canon())
	}
	if !slices.IsSortedFunc(tris, CompareTriangles) {
		slices.SortFunc(tris, CompareTriangles)
	}
	u64(uint64(len(tris)))
	for _, t := range tris {
		u64(uint64(t.A))
		u64(uint64(t.B))
		u64(uint64(t.C))
	}
	return buf
}

// CompareEdges orders (low, high) edges the way Result.Edges is sorted.
func CompareEdges(a, b [2]int64) int {
	if c := cmp.Compare(a[0], b[0]); c != 0 {
		return c
	}
	return cmp.Compare(a[1], b[1])
}

// CompareTriangles orders canonical triangles the way Result.Triangles is
// sorted.
func CompareTriangles(a, b geom.Triangle) int {
	if c := cmp.Compare(a.A, b.A); c != 0 {
		return c
	}
	if c := cmp.Compare(a.B, b.B); c != 0 {
		return c
	}
	return cmp.Compare(a.C, b.C)
}
