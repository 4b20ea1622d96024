// Command dmbuild generates a synthetic terrain, simplifies it into a
// Direct Mesh dataset, and writes the disk-resident store (heap file,
// R*-tree, B+-tree, overflow file, and the live-ID sets of the default
// LOD ladder's rungs, which let a tile server keep only usable seam pairs)
// into a directory that cmd/dmquery, the one program that opens a store
// directory, can query.
//
// Usage:
//
//	dmbuild -out ./stores/highland [-dataset highland|crater] [-size N] [-seed S]
//	        [-layout packed|str]
//	dmbuild -out DIR -dem grid.asc   # an ESRI ASCII grid DEM
//	dmbuild -out DIR -xyz points.xyz # irregular survey points, Delaunay-triangulated
//
// -layout packed (the default, and what every server runs on) writes
// compressed records; -layout str writes the fixed-size records the
// paper's figures are measured on. Both cluster the records in the
// R*-tree's leaf order. A store directory written by an older build is
// refused by OpenStore by name; rebuild it here.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dmesh"
)

func main() {
	var (
		out     = flag.String("out", "", "output directory for the store (required)")
		dataset = flag.String("dataset", "highland", "terrain generator: highland or crater")
		size    = flag.Int("size", 257, "heightfield side length (size*size points)")
		seed    = flag.Int64("seed", 1, "generation seed")
		demPath = flag.String("dem", "", "build from an ESRI ASCII grid DEM file instead of generating")
		xyzPath = flag.String("xyz", "", "build from an XYZ survey-point file (Delaunay-triangulated)")
		layoutF = flag.String("layout", "packed", "physical record layout: packed or str")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "dmbuild: -out is required")
		flag.Usage()
		os.Exit(2)
	}
	layout, err := dmesh.ParseLayout(*layoutF)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmbuild:", err)
		os.Exit(2)
	}
	if err := run(*out, *dataset, *size, *seed, *demPath, *xyzPath, layout); err != nil {
		fmt.Fprintln(os.Stderr, "dmbuild:", err)
		os.Exit(1)
	}
}

func run(out, dataset string, size int, seed int64, demPath, xyzPath string, layout dmesh.Layout) error {
	start := time.Now()
	var t *dmesh.Terrain
	var err error
	switch {
	case demPath != "" && xyzPath != "":
		return fmt.Errorf("-dem and -xyz are mutually exclusive")
	case demPath != "":
		fmt.Printf("reading DEM %s...\n", demPath)
		f, err2 := os.Open(demPath)
		if err2 != nil {
			return err2
		}
		g, err2 := dmesh.ReadASCIIGrid(f)
		f.Close()
		if err2 != nil {
			return err2
		}
		t, err = dmesh.BuildFromGrid(g, dmesh.Config{Seed: seed})
	case xyzPath != "":
		fmt.Printf("reading points %s...\n", xyzPath)
		f, err2 := os.Open(xyzPath)
		if err2 != nil {
			return err2
		}
		pts, err2 := dmesh.ReadXYZ(f)
		f.Close()
		if err2 != nil {
			return err2
		}
		t, err = dmesh.BuildFromPoints(pts, dmesh.Config{Seed: seed})
	default:
		fmt.Printf("generating %s terrain (%dx%d points)...\n", dataset, size, size)
		t, err = dmesh.Build(dmesh.Config{Dataset: dataset, Size: size, Seed: seed})
	}
	if err != nil {
		return err
	}
	fmt.Printf("  %d points, %d multiresolution nodes, max LOD %.4g (%.1fs)\n",
		t.NumPoints(), t.Dataset.Tree.Len(), t.MaxLOD(), time.Since(start).Seconds())

	st := t.Sequence.Stats()
	fmt.Printf("  connection lists: avg %.1f similar-LOD (max %d), avg %.1f total\n",
		st.AvgSimilarLOD, st.MaxSimilarLOD, st.AvgTotal)

	fmt.Printf("writing store to %s (%s layout)...\n", out, layout)
	start = time.Now()
	store, err := t.BuildDMStoreAtWithPools(dmesh.StorePools{Layout: layout}, out)
	if err != nil {
		return err
	}
	fmt.Printf("  done (%.1fs); LOD percentiles: p50=%.4g p90=%.4g p99=%.4g; rung sets for %d LODs\n",
		time.Since(start).Seconds(),
		t.LODPercentile(0.5), t.LODPercentile(0.9), t.LODPercentile(0.99), len(store.Rungs()))
	return store.Close()
}
