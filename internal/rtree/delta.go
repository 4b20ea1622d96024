package rtree

import "dmesh/internal/geom"

// DeltaBoxes returns range-query volumes covering exactly the part of
// ∪target not already covered by ∪cover. A coherent (frame-to-frame)
// query fetches only these fragments, one Search each: every item
// intersecting a target box either intersects a cover box (and was
// fetched for it) or intersects a fragment. Fragments share boundary
// faces with the cover boxes and with each other, so an item straddling
// a boundary can match more than one search; callers deduplicate by item
// identity.
func DeltaBoxes(target, cover []geom.Box) []geom.Box {
	return geom.Difference(target, cover)
}
