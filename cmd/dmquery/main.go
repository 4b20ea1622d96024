// Command dmquery runs ad-hoc multiresolution queries against a store
// directory written by cmd/dmbuild, reporting the retrieved mesh and its
// disk-access cost, optionally exporting the mesh as a Wavefront OBJ file.
//
// Usage:
//
//	dmquery -store DIR -roi x0,y0,x1,y1 -lod 0.001            # uniform LOD
//	dmquery -store DIR -roi x0,y0,x1,y1 -emin 0.0005 -emax 0.01  # query plane
//	dmquery ... -obj mesh.obj                                  # export
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"dmesh"
	"dmesh/internal/geom"
	"dmesh/internal/mesh"
)

func main() {
	var (
		storeDir = flag.String("store", "", "store directory from dmbuild (required)")
		roiStr   = flag.String("roi", "0.25,0.25,0.75,0.75", "region of interest: x0,y0,x1,y1 in [0,1]")
		lod      = flag.Float64("lod", -1, "uniform LOD value (viewpoint-independent query)")
		emin     = flag.Float64("emin", -1, "query-plane minimum LOD (viewpoint-dependent)")
		emax     = flag.Float64("emax", -1, "query-plane maximum LOD (viewpoint-dependent)")
		multi    = flag.Bool("multi", false, "use the multi-base optimizer for plane queries")
		explain  = flag.Bool("explain", false, "print the multi-base plan for a plane query instead of executing it")
		viewer   = flag.String("viewer", "", "radial query viewer position as x,y (with -scale)")
		scale    = flag.Float64("scale", 0, "radial query LOD-per-distance scale")
		objPath  = flag.String("obj", "", "write the mesh as Wavefront OBJ to this path")
	)
	flag.Parse()
	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "dmquery: -store is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*storeDir, *roiStr, *lod, *emin, *emax, *multi, *explain, *viewer, *scale, *objPath); err != nil {
		fmt.Fprintln(os.Stderr, "dmquery:", err)
		os.Exit(1)
	}
}

func parseROI(s string) (dmesh.Rect, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return dmesh.Rect{}, fmt.Errorf("roi must be x0,y0,x1,y1, got %q", s)
	}
	var v [4]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return dmesh.Rect{}, fmt.Errorf("roi component %d: %w", i, err)
		}
		v[i] = f
	}
	return dmesh.NewRect(v[0], v[1], v[2], v[3]), nil
}

func run(storeDir, roiStr string, lod, emin, emax float64, multi, explain bool, viewer string, scale float64, objPath string) error {
	roi, err := parseROI(roiStr)
	if err != nil {
		return err
	}
	store, err := dmesh.OpenDMStore(storeDir)
	if err != nil {
		return err
	}
	defer store.Close()

	// -explain plans without executing, so it skips the measured run.
	if explain && emin >= 0 && emax >= emin {
		qp := dmesh.QueryPlane{R: roi, EMin: emin, EMax: emax, Axis: 1}
		model, merr := dmesh.NewCostModel(store)
		if merr != nil {
			return merr
		}
		plan, perr := store.ExplainPlane(qp, model, 0)
		if perr != nil {
			return perr
		}
		fmt.Print(plan)
		return nil
	}

	var res *dmesh.Result
	da, err := dmesh.MeasuredRun(store, func() error {
		var qerr error
		switch {
		case viewer != "":
			parts := strings.Split(viewer, ",")
			if len(parts) != 2 || scale <= 0 {
				return fmt.Errorf("radial query needs -viewer x,y and a positive -scale")
			}
			vx, err1 := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
			vy, err2 := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
			if err1 != nil || err2 != nil {
				return fmt.Errorf("bad -viewer %q", viewer)
			}
			res, qerr = store.Radial(roi, geom.Point2{X: vx, Y: vy}, scale, 8)
		case lod >= 0:
			res, qerr = store.ViewpointIndependent(roi, lod)
		case emin >= 0 && emax >= emin:
			qp := dmesh.QueryPlane{R: roi, EMin: emin, EMax: emax, Axis: 1}
			if multi {
				model, merr := dmesh.NewCostModel(store)
				if merr != nil {
					return merr
				}
				res, qerr = store.MultiBase(qp, model, 0)
			} else {
				res, qerr = store.SingleBase(qp)
			}
		default:
			return fmt.Errorf("specify -lod for a uniform query or -emin/-emax for a plane query")
		}
		return qerr
	})
	if err != nil {
		return err
	}

	fmt.Printf("vertices:      %d\n", len(res.Vertices))
	fmt.Printf("edges:         %d\n", len(res.Edges))
	fmt.Printf("triangles:     %d\n", len(res.Triangles))
	fmt.Printf("records read:  %d (in %d range quer%s)\n", res.FetchedRecords, res.Strips, plural(res.Strips, "y", "ies"))
	fmt.Printf("disk accesses: %d\n", da)
	bd := store.Breakdown()
	fmt.Printf("  data %d, index %d, id-index %d, overflow %d\n", bd.Data, bd.Index, bd.IDIndex, bd.Overflow)

	if objPath != "" {
		if err := writeOBJ(res, objPath); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", objPath)
	}
	return nil
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// writeOBJ converts the query result into a mesh.Mesh (remapping sparse
// vertex IDs to dense indices) and writes it as OBJ.
func writeOBJ(res *dmesh.Result, path string) error {
	ids := make([]int64, 0, len(res.Vertices))
	for id := range res.Vertices {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	remap := make(map[int64]int64, len(ids))
	m := &mesh.Mesh{Positions: make([]geom.Point3, len(ids))}
	for i, id := range ids {
		remap[id] = int64(i)
		m.Positions[i] = res.Vertices[id]
	}
	for _, t := range res.Triangles {
		m.Tris = append(m.Tris, geom.Triangle{A: remap[t.A], B: remap[t.B], C: remap[t.C]})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.WriteOBJ(f); err != nil {
		f.Close()
		return err
	}
	return f.Close() // a failed close is a short file, not "wrote"
}
