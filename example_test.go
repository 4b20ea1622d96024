package dmesh_test

import (
	"fmt"
	"log"

	"dmesh"
)

// Build a terrain, store it as a Direct Mesh, and run the two query types
// the structure supports: a uniform cut and a query plane, the plane both
// as one cube and as the multi-base optimizer's cubes.
func Example() {
	// Full-resolution mesh -> QEM edge-collapse sequence -> Direct Mesh
	// (LOD intervals + connection lists).
	terrain, err := dmesh.Build(dmesh.Config{Dataset: "highland", Size: 129, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("terrain: %d points, %d multiresolution nodes\n",
		terrain.NumPoints(), terrain.Dataset.Tree.Len())

	// Paged storage: a heap file clustered on the 3D R*-tree that indexes
	// every point's (x, y, LOD-interval) segment.
	store, err := terrain.NewDMStore()
	if err != nil {
		log.Fatal(err)
	}

	// Viewpoint-independent: one region, one LOD. LODs are approximation
	// errors; percentiles of the dataset's LOD distribution pick them.
	// MeasuredRun is the paper's cold-cache methodology: drop the buffer
	// pools, zero the counters, run, count.
	roi := dmesh.NewRect(0.25, 0.25, 0.75, 0.75)
	var res *dmesh.Result
	da, err := dmesh.MeasuredRun(store, func() (qerr error) {
		res, qerr = store.ViewpointIndependent(roi, terrain.LODPercentile(0.9))
		return qerr
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uniform: %d vertices, %d triangles, %d DA\n", len(res.Vertices), len(res.Triangles), da)

	// Viewpoint-dependent: fine near the viewer (low y), coarse in the
	// distance, in one range query.
	plane := dmesh.QueryPlane{
		R:    roi,
		EMin: terrain.LODPercentile(0.8),
		EMax: terrain.LODPercentile(0.99),
		Axis: 1, // LOD grows along y
	}
	da, err = dmesh.MeasuredRun(store, func() (qerr error) {
		res, qerr = store.SingleBase(plane)
		return qerr
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("single-base: %d vertices, %d triangles, %d DA\n", len(res.Vertices), len(res.Triangles), da)

	// The multi-base optimizer covers the plane with several cubes when
	// its cost model predicts fewer disk accesses.
	model, err := dmesh.NewCostModel(store)
	if err != nil {
		log.Fatal(err)
	}
	da, err = dmesh.MeasuredRun(store, func() (qerr error) {
		res, qerr = store.MultiBase(plane, model, 0)
		return qerr
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("multi-base: %d cubes, %d DA\n", res.Strips, da)

	// Output:
	// terrain: 16641 points, 33281 multiresolution nodes
	// uniform: 1311 vertices, 2224 triangles, 131 DA
	// single-base: 829 vertices, 1406 triangles, 181 DA
	// multi-base: 4 cubes, 125 DA
}
