package stream

import (
	"slices"

	"dmesh/internal/geom"
	"dmesh/internal/wire"
)

// mesh is the decoded-so-far mesh both codec ends keep in lockstep, flat
// and ascending: ids strictly ascending with pos parallel to it, edges
// (a < b) and canonical triangles (A < B < C) in the order dm.Result
// documents and the wire carries. The encoder diffs each rung's answer
// against it and the decoder merges each batch into it, both in one pass,
// because every list on either side is already sorted.
type mesh struct {
	ids   []int64
	pos   []geom.Point3
	edges [][2]int64
	tris  []geom.Triangle
}

// diff is the encoder's half: for two strictly ascending lists it appends
// prev − next to removed and next − prev to added, both ascending, growing
// each at most once (to what it could at most hold).
func diff[T any](removed, added, prev, next []T, cmp func(a, b T) int) ([]T, []T) {
	removed, added = slices.Grow(removed, len(prev)), slices.Grow(added, len(next))
	i, j := 0, 0
	for i < len(prev) && j < len(next) {
		switch c := cmp(prev[i], next[j]); {
		case c < 0:
			removed = append(removed, prev[i])
			i++
		case c > 0:
			added = append(added, next[j])
			j++
		default:
			i++
			j++
		}
	}
	return append(removed, prev[i:]...), append(added, next[j:]...)
}

// apply is the decoder's half, diff's inverse: it appends
// (state − removed) ∪ added to out, all of them strictly ascending. The
// two ways a batch can contradict the mesh it is applied to fall out of
// the walk and are reported on r: removing an element state does not hold,
// and adding one it does — even one the same batch removes, since the
// encoder sends set differences and never would. out is garbage after a
// report.
func apply[T any](out, state, removed, added []T, cmp func(a, b T) int, r *wire.Reader, what string) []T {
	out = slices.Grow(out, max(0, len(state)-len(removed))+len(added))
	rm, ad := 0, 0
	for _, s := range state {
		for ad < len(added) {
			c := cmp(added[ad], s)
			if c == 0 {
				r.Corruptf("re-adds %s %v", what, s)
				return out
			}
			if c > 0 {
				break
			}
			out = append(out, added[ad])
			ad++
		}
		if rm < len(removed) {
			c := cmp(removed[rm], s)
			if c < 0 {
				break // not in state: reported below
			}
			if c == 0 {
				rm++
				continue
			}
		}
		out = append(out, s)
	}
	if rm < len(removed) {
		r.Corruptf("removes unknown %s %v", what, removed[rm])
		return out
	}
	return append(out, added[ad:]...)
}
