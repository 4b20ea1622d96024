package dm

import (
	"errors"
	"testing"

	"dmesh/internal/geom"
	"dmesh/internal/storage/faultfs"
	"dmesh/internal/storage/pager"
)

func buildDatasetOnly(t testing.TB, size int, name string) *Dataset {
	t.Helper()
	ds, _ := buildDataset(t, size, name)
	return ds
}

func memBackends() [4]pager.Backend {
	return [4]pager.Backend{
		pager.NewMemBackend(), pager.NewMemBackend(),
		pager.NewMemBackend(), pager.NewMemBackend(),
	}
}

// TestRepackAnswersIdentically is the repack correctness property: a
// store repacked into either layout answers every query kind exactly like
// its source — the same mesh, in the same ascending Result order — uniform (several ROIs and LODs), single-base, explicit
// multi-base strip plans, radial, temporally coherent frame sequences,
// and tile materialization + stitching — on both datasets. Plans come
// from the SOURCE store's cost model and run on both stores explicitly:
// each layout's own R*-tree yields its own model and possibly different
// plans, which legitimately fetch different (equally correct) record
// sets; the property under test is physical-layout transparency for the
// same logical query.
func TestRepackAnswersIdentically(t *testing.T) {
	for _, name := range []string{"highland", "crater"} {
		ds := inflateConn(buildDatasetOnly(t, 9, name), overflowLengths...)
		src, err := BuildStore(ds, StorePools{Layout: LayoutSTR})
		if err != nil {
			t.Fatal(err)
		}
		model, err := src.CostModel()
		if err != nil {
			t.Fatal(err)
		}
		rois := []geom.Rect{
			fullRect(),
			{MinX: 0.2, MinY: 0.3, MaxX: 0.7, MaxY: 0.9},
			{MinX: 0.45, MinY: 0.45, MaxX: 0.55, MaxY: 0.55},
		}
		qp := geom.QueryPlane{
			R:    geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.9, MaxY: 0.9},
			EMin: eAtPercentile(ds, 0.2), EMax: eAtPercentile(ds, 0.85), Axis: 1,
		}
		strips := model.PlanStrips(qp, 0)
		viewer := geom.Point2{X: 0.5, Y: 0.05}
		scale := eAtPercentile(ds, 0.6) / 0.1

		for _, target := range allLayouts {
			ctx := name + "/" + target.String()
			rp, err := RepackOnBackends(src, StorePools{Layout: target}, memBackends())
			if err != nil {
				t.Fatalf("%s: repack: %v", ctx, err)
			}
			if rp.NumNodes() != src.NumNodes() {
				t.Fatalf("%s: repacked %d nodes, want %d", ctx, rp.NumNodes(), src.NumNodes())
			}

			// Uniform ROI x LOD grid.
			for _, roi := range rois {
				for _, pct := range []float64{0.25, 0.6, 0.9} {
					e := eAtPercentile(ds, pct)
					want, err := src.ViewpointIndependent(roi, e)
					if err != nil {
						t.Fatal(err)
					}
					got, err := rp.ViewpointIndependent(roi, e)
					if err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					requireSameMesh(t, ctx+" uniform", got, want)
				}
			}

			// Single-base.
			want, err := src.SingleBase(qp)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rp.SingleBase(qp)
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			requireSameMesh(t, ctx+" single-base", got, want)

			// Multi-base, same explicit plan on both stores.
			want, err = src.ExecuteStrips(qp, strips)
			if err != nil {
				t.Fatal(err)
			}
			got, err = rp.ExecuteStrips(qp, strips)
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			requireSameMesh(t, ctx+" strips", got, want)

			// Radial.
			want, err = src.Radial(rois[1], viewer, scale, 4)
			if err != nil {
				t.Fatal(err)
			}
			got, err = rp.Radial(rois[1], viewer, scale, 4)
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			requireSameMesh(t, ctx+" radial", got, want)

			// Coherent frame sequence (a small pan), frame by frame.
			csSrc := src.NewCoherentSession(nil)
			csRp := rp.NewCoherentSession(nil)
			e := eAtPercentile(ds, 0.5)
			for f := 0; f < 4; f++ {
				roi := geom.Rect{
					MinX: 0.1 + 0.05*float64(f), MinY: 0.2,
					MaxX: 0.6 + 0.05*float64(f), MaxY: 0.7,
				}
				want, _, err := csSrc.FrameUniform(roi, e)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := csRp.FrameUniform(roi, e)
				if err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				requireSameMesh(t, ctx+" coherent", got, want)
			}

			// Tile materialization + stitching over a 2x2 grid.
			quads := []geom.Rect{
				{MinX: 0, MinY: 0, MaxX: 0.5, MaxY: 0.5},
				{MinX: 0.5, MinY: 0, MaxX: 1, MaxY: 0.5},
				{MinX: 0, MinY: 0.5, MaxX: 0.5, MaxY: 1},
				{MinX: 0.5, MinY: 0.5, MaxX: 1, MaxY: 1},
			}
			stitchROI := geom.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.8, MaxY: 0.8}
			var srcTiles, rpTiles []*TilePatch
			for _, q := range quads {
				tp, err := src.MaterializeTile(q, e)
				if err != nil {
					t.Fatal(err)
				}
				srcTiles = append(srcTiles, tp)
				tp, err = rp.MaterializeTile(q, e)
				if err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				rpTiles = append(rpTiles, tp)
			}
			want, err = StitchTiles(stitchROI, e, srcTiles)
			if err != nil {
				t.Fatal(err)
			}
			got, err = StitchTiles(stitchROI, e, rpTiles)
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			requireSameMesh(t, ctx+" tiles", got, want)
		}
	}
}

// TestRepackPersisted runs the offline pass end to end through the
// directory API: build a store on disk, Repack it to a second directory,
// reopen both, and compare answers.
func TestRepackPersisted(t *testing.T) {
	ds := inflateConn(buildDatasetOnly(t, 8, "highland"), overflowLengths...)
	srcDir, outDir := t.TempDir(), t.TempDir()+"/repacked"
	src, err := BuildStoreAt(ds, StorePools{Layout: LayoutSTR}, srcDir)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Repack(src, StorePools{Layout: LayoutPacked}, outDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStore(outDir, StorePools{})
	if err != nil {
		t.Fatal(err)
	}
	if re.Layout() != LayoutPacked {
		t.Fatalf("repacked store reopened as %v, want packed", re.Layout())
	}
	e := eAtPercentile(ds, 0.5)
	want, err := src.ViewpointIndependent(fullRect(), e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.ViewpointIndependent(fullRect(), e)
	if err != nil {
		t.Fatal(err)
	}
	requireSameMesh(t, "reopened repacked store", got, want)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	// Repacking over an existing store directory must refuse.
	src2, err := OpenStore(srcDir, StorePools{})
	if err != nil {
		t.Fatal(err)
	}
	defer src2.Close()
	if _, err := Repack(src2, StorePools{Layout: LayoutSTR}, outDir); err == nil {
		t.Fatal("repack over an existing store directory must fail")
	}
}

// TestRepackFaultInjection covers the failure paths of the offline pass
// and of queries against a faulted packed store: injected read faults
// surface as errors (never panics, never silently wrong answers), and a
// healed store answers correctly again.
func TestRepackFaultInjection(t *testing.T) {
	ds := inflateConn(buildDatasetOnly(t, 8, "crater"), overflowLengths...)

	// 1. Repack from a faulted source errors cleanly.
	var srcFaults []*faultfs.Backend
	src, err := BuildStoreOnBackends(ds, StorePools{
		Layout: LayoutSTR,
		WrapBackend: func(b pager.Backend) pager.Backend {
			fb := faultfs.Wrap(b)
			srcFaults = append(srcFaults, fb)
			return fb
		},
	}, memBackends())
	if err != nil {
		t.Fatal(err)
	}
	if err := src.DropCaches(); err != nil {
		t.Fatal(err)
	}
	for _, fb := range srcFaults {
		fb.SetSchedule(faultfs.Read, faultfs.Schedule{Every: 7})
	}
	if _, err := RepackOnBackends(src, StorePools{Layout: LayoutPacked}, memBackends()); err == nil {
		t.Fatal("repack from a faulted source must fail")
	} else if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("repack error should wrap the injected fault, got: %v", err)
	}
	for _, fb := range srcFaults {
		fb.Heal()
	}

	// 2. A healed source repacks; a faulted store repacked into packed
	// errors on queries, then answers correctly after healing.
	var rpFaults []*faultfs.Backend
	rp, err := RepackOnBackends(src, StorePools{
		Layout: LayoutPacked,
		WrapBackend: func(b pager.Backend) pager.Backend {
			fb := faultfs.Wrap(b)
			rpFaults = append(rpFaults, fb)
			return fb
		},
	}, memBackends())
	if err != nil {
		t.Fatal(err)
	}
	e := eAtPercentile(ds, 0.5)
	want, err := src.ViewpointIndependent(fullRect(), e)
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.DropCaches(); err != nil {
		t.Fatal(err)
	}
	for _, fb := range rpFaults {
		fb.SetSchedule(faultfs.Read, faultfs.Schedule{Every: 5})
	}
	if _, err := rp.ViewpointIndependent(fullRect(), e); err == nil {
		t.Fatal("query against a faulted store must fail")
	} else if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("query error should wrap the injected fault, got: %v", err)
	}
	for _, fb := range rpFaults {
		fb.Heal()
	}
	if err := rp.DropCaches(); err != nil {
		t.Fatal(err)
	}
	got, err := rp.ViewpointIndependent(fullRect(), e)
	if err != nil {
		t.Fatal(err)
	}
	requireSameMesh(t, "healed repacked store", got, want)
}
