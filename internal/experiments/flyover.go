package experiments

import (
	"fmt"

	"dmesh"
	"dmesh/internal/workload"
)

// FlyoverPoint is one overlap setting of the temporal-coherence
// experiment: the mean per-frame disk accesses of four engines answering
// the same camera path, with frame 0 (cold for every engine) excluded.
type FlyoverPoint struct {
	// Overlap is the configured frame-to-frame overlap; Realized is the
	// mean overlap of the generated path (turns push it off slightly).
	Overlap, Realized float64
	// FullColdDA re-runs the full query with caches dropped before every
	// frame — the paper's stateless measurement methodology.
	FullColdDA float64
	// FullWarmDA re-runs the full query against a shared warm buffer
	// pool — the stateless engine's best case, and the baseline the
	// incremental engine must beat.
	FullWarmDA float64
	// IncSBDA and IncMBDA are the coherent engine's single-base and
	// multi-base frames.
	IncSBDA, IncMBDA float64
	// IncSBFull and IncMBFull count frames past the first where the cost
	// model fell back to a full query instead of the delta plan.
	IncSBFull, IncMBFull int
}

// FlyoverFigure is the -fig flyover experiment: mean disk accesses per
// frame along a terrain flyover, full-query engines vs the coherent
// (incremental) engine, swept over the frame-to-frame overlap.
type FlyoverFigure struct {
	Name       string
	Frames     int
	Pools      dmesh.StorePools `json:"-"` // flyoverPools(); its backend hook has no JSON form
	EMin, EMax float64
	Points     []FlyoverPoint
}

// flyoverPools deliberately constrains the buffer pools: the coherence
// win exists when frames compete for buffer space (a server answering
// many flyovers at once), because a big enough pool answers warm
// full queries from memory and there is nothing left to save.
func flyoverPools() dmesh.StorePools {
	return dmesh.StorePools{Data: 64, Overflow: 16, Index: 64, IDIndex: 16}
}

// Flyover measures the temporal-coherence experiment on this bundle's
// terrain. Every engine answers the identical camera path on a dedicated
// memory-constrained store; the incremental passes are cross-checked
// frame by frame against the full-query mesh (vertex and triangle
// counts), so a correctness regression fails the measurement instead of
// skewing it.
func (b *Bundle) Flyover(cfg workload.Config, overlaps []float64, frames int) (*FlyoverFigure, error) {
	if frames < 2 {
		frames = 40
	}
	store, err := b.Terrain.NewDMStoreWithPools(flyoverPools())
	if err != nil {
		return nil, fmt.Errorf("experiments: flyover store: %w", err)
	}
	model, err := dmesh.NewCostModel(store)
	if err != nil {
		return nil, fmt.Errorf("experiments: flyover cost model: %w", err)
	}
	fig := &FlyoverFigure{
		Name:   b.Name,
		Frames: frames,
		Pools:  flyoverPools(),
		EMin:   b.Terrain.LODPercentile(0.5),
		EMax:   b.Terrain.LODPercentile(0.95),
	}

	for _, overlap := range overlaps {
		cp := workload.CameraPath{
			Frames:  frames,
			Overlap: overlap,
			Axis:    1,
			EMin:    fig.EMin,
			EMax:    fig.EMax,
			Seed:    cfg.Seed,
		}
		planes := cp.Planes()
		pt := FlyoverPoint{Overlap: overlap, Realized: workload.MeanOverlap(planes)}
		mean := float64(len(planes) - 1)

		// Full query, cold cache every frame (the stateless methodology
		// of every other figure).
		for i, qp := range planes {
			if i == 0 {
				continue
			}
			qp := qp
			da, err := dmesh.MeasuredRun(store, func() error {
				_, err := store.SingleBase(qp)
				return err
			})
			if err != nil {
				return nil, err
			}
			pt.FullColdDA += float64(da) / mean
		}

		// Full query against a shared warm pool; its per-frame meshes are
		// the oracle for the incremental single-base pass.
		type counts struct{ verts, tris int }
		oracleSB := make([]counts, len(planes))
		if err := store.DropCaches(); err != nil {
			return nil, err
		}
		sess := store.NewSession()
		for i, qp := range planes {
			sess.ResetStats()
			res, err := sess.SingleBase(qp)
			if err != nil {
				return nil, err
			}
			oracleSB[i] = counts{len(res.Vertices), len(res.Triangles)}
			if i > 0 {
				pt.FullWarmDA += float64(sess.DiskAccesses()) / mean
			}
		}

		// The multi-base mesh can differ slightly from the single-base one
		// (lifted edges whose representative chains leave the strip volume
		// are dropped), so the multi-base pass gets its own oracle.
		oracleMB := make([]counts, len(planes))
		for i, qp := range planes {
			res, err := sess.MultiBase(qp, model, 0)
			if err != nil {
				return nil, err
			}
			oracleMB[i] = counts{len(res.Vertices), len(res.Triangles)}
		}

		// Coherent engine, single-base and multi-base frames.
		incremental := func(multiBase bool) (float64, int, error) {
			if err := store.DropCaches(); err != nil {
				return 0, 0, err
			}
			cs := store.NewCoherentSession(model)
			var da float64
			var full int
			for i, qp := range planes {
				var res *dmesh.Result
				var st dmesh.FrameStats
				var err error
				oracle := oracleSB[i]
				if multiBase {
					res, st, err = cs.FrameMultiBase(qp, 0)
					oracle = oracleMB[i]
				} else {
					res, st, err = cs.Frame(qp)
				}
				if err != nil {
					return 0, 0, err
				}
				if got := (counts{len(res.Vertices), len(res.Triangles)}); got != oracle {
					return 0, 0, fmt.Errorf(
						"experiments: flyover overlap %g frame %d: incremental mesh (%d verts, %d tris) != full query (%d, %d)",
						overlap, i, got.verts, got.tris, oracle.verts, oracle.tris)
				}
				if i > 0 {
					da += float64(st.DA) / mean
					if st.Full {
						full++
					}
				}
			}
			return da, full, nil
		}
		if pt.IncSBDA, pt.IncSBFull, err = incremental(false); err != nil {
			return nil, err
		}
		if pt.IncMBDA, pt.IncMBFull, err = incremental(true); err != nil {
			return nil, err
		}

		fig.Points = append(fig.Points, pt)
	}
	return fig, nil
}
