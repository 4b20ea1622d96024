// Flyover: a camera travels across the terrain issuing one viewpoint-
// dependent query per frame — the interactive-visualization workload the
// paper's introduction motivates. Consecutive frames overlap heavily, so
// the program answers the same camera path twice: once by re-running the
// full query every frame (warm buffer pool — the stateless engine's best
// case) and once with a coherent session (dmesh.DMCoherentSession) that
// retains the previous frame's nodes and only fetches the newly exposed
// volume. The buffer pool is deliberately small, as on
// a server answering many flyovers at once; that is the regime where
// temporal coherence pays.
//
//	go run ./examples/flyover
package main

import (
	"fmt"
	"log"

	"dmesh"
	"dmesh/internal/workload"
)

const frames = 16

func main() {
	terrain, err := dmesh.Build(dmesh.Config{Dataset: "crater", Size: 129, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	store, err := terrain.NewDMStoreWithPools(dmesh.StorePools{
		Data: 64, Overflow: 16, Index: 64, IDIndex: 16,
	})
	if err != nil {
		log.Fatal(err)
	}
	model, err := dmesh.NewCostModel(store)
	if err != nil {
		log.Fatal(err)
	}

	// The camera flies south to north, each frame seeing a viewport-sized
	// ROI with LOD falling off with distance; consecutive frames share 85%
	// of their view.
	path := workload.CameraPath{
		Frames:    frames,
		ViewWidth: 0.5, ViewHeight: 0.4,
		Overlap: 0.85,
		Axis:    1,
		EMin:    terrain.LODPercentile(0.75), // fine near the camera
		EMax:    terrain.LODPercentile(0.99), // coarse at the horizon
		Seed:    7,
	}
	planes := path.Planes()

	// Pass 1: full re-query per frame against a warm pool.
	if err := store.DropCaches(); err != nil {
		log.Fatal(err)
	}
	sess := store.NewSession()
	fullDA := make([]uint64, len(planes))
	for f, plane := range planes {
		sess.ResetStats()
		if _, err := sess.SingleBase(plane); err != nil {
			log.Fatal(err)
		}
		fullDA[f] = sess.DiskAccesses()
	}

	// Pass 2: the coherent session answers the same frames incrementally.
	if err := store.DropCaches(); err != nil {
		log.Fatal(err)
	}
	cs := store.NewCoherentSession(model)
	fmt.Printf("%5s  %-14s  %6s  %6s  %7s  %7s  %7s  %8s  %7s\n",
		"frame", "view y", "verts", "tris", "retain", "fetch", "evict", "DA(full)", "DA(inc)")
	var sumFull, sumInc uint64
	for f, plane := range planes {
		res, st, err := cs.Frame(plane)
		if err != nil {
			log.Fatal(err)
		}
		mode := ""
		if st.Full {
			mode = " (full)"
		}
		fmt.Printf("%5d  y=[%.2f,%.2f]  %6d  %6d  %7d  %7d  %7d  %8d  %6d%s\n",
			f, plane.R.MinY, plane.R.MaxY, len(res.Vertices), len(res.Triangles),
			st.Retained, st.Fetched, st.Evicted, fullDA[f], st.DA, mode)
		if f > 0 { // frame 0 is cold for both engines
			sumFull += fullDA[f]
			sumInc += st.DA
		}
	}
	fmt.Printf("\nframes 1..%d: full re-query %d disk accesses, incremental %d (%.1fx fewer)\n",
		len(planes)-1, sumFull, sumInc, float64(sumFull)/float64(sumInc))
}
