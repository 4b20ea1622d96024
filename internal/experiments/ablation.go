package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"dmesh"
	"dmesh/internal/costmodel"
	"dmesh/internal/geom"
	"dmesh/internal/workload"
)

// AblationFigure is the -fig ablation result: one table per design
// decision of DESIGN.md §5, each case's mean disk accesses a query.
type AblationFigure struct {
	Name   string
	Tables []AblationTable
}

// AblationTable is one decision and its alternatives.
type AblationTable struct {
	Title string
	Cases []AblationCase
}

// AblationCase is one alternative and its mean DA a query.
type AblationCase struct {
	Case string
	DA   float64
}

// Ablation measures four decisions on the bundle's str stores, every
// query cold unless its case says otherwise: multi-base plans against
// single-base and fixed strip counts, cold against warm buffers, the
// buffer pool's size, and the HDoV-tree against its visibility-blind
// LOD-R-tree mode. It leaves the bundle's stores cold with their counters
// zeroed, so a row after it measures what it would without it.
func (b *Bundle) Ablation(cfg workload.Config) (*AblationFigure, error) {
	fig := &AblationFigure{Name: b.Name}
	table := func(title string, cases []string, measure func(i int) (float64, error)) error {
		t := AblationTable{Title: title}
		for i, c := range cases {
			da, err := measure(i)
			if err != nil {
				return err
			}
			t.Cases = append(t.Cases, AblationCase{c, da})
		}
		fig.Tables = append(fig.Tables, t)
		return nil
	}
	emin, maxLOD := b.Terrain.LODPercentile(0.85), b.EffectiveMaxLOD()
	avgPlanes := func(s dmesh.ColdMeasurable, query func(geom.QueryPlane) error) (float64, error) {
		rois := workload.ROIs(cfg, 0.10)
		var sum float64
		for _, roi := range rois {
			qp := workload.PlaneFor(roi, emin, maxLOD, 0.5)
			da, err := coldRun(s, func() error { return query(qp) })
			if err != nil {
				return 0, err
			}
			sum += da
		}
		return sum / float64(len(rois)), nil
	}
	uniform := func(s *dmesh.DMStore, roi geom.Rect, e float64) func() error {
		return func() error {
			_, err := s.ViewpointIndependent(roi, e)
			return err
		}
	}

	strips := []int{1, 0, 4, 16} // 0: the cost-model optimizer's plan
	if err := table("multi-base planning (p85 plane, ROI 10%)",
		[]string{"single-base", "optimizer", "fixed 4 strips", "fixed 16 strips"},
		func(i int) (float64, error) {
			return avgPlanes(b.DM, func(qp geom.QueryPlane) error {
				var plan []costmodel.Strip
				if strips[i] == 0 {
					plan = b.Model.PlanStrips(qp, 0)
				} else {
					plan = costmodel.EqualStrips(qp, strips[i])
				}
				_, err := b.DM.ExecuteStrips(qp, plan)
				return err
			})
		}); err != nil {
		return nil, err
	}

	vi := uniform(b.DM, workload.ROIs(cfg, 0.08)[0], b.Terrain.LODPercentile(0.9))
	if err := table("cold against warm buffers (uniform p90, ROI 8%)", []string{"cold", "warm"},
		func(i int) (float64, error) {
			if i == 0 {
				return coldRun(b.DM, vi)
			}
			b.DM.ResetStats()
			err := vi()
			return float64(b.DM.DiskAccesses()), err
		}); err != nil {
		return nil, err
	}

	pages := []int{8, 64, 4096}
	if err := table("buffer-pool pages per file (uniform p80, ROI 10%)", []string{"8", "64", "4096"},
		func(i int) (float64, error) {
			n := pages[i]
			s, err := b.Terrain.NewDMStoreWithPools(dmesh.StorePools{
				Data: n, Index: n, IDIndex: n, Overflow: n, Layout: dmesh.LayoutSTR,
			})
			if err != nil {
				return 0, err
			}
			return coldRun(s, uniform(s, workload.ROIs(cfg, 0.10)[0], b.Terrain.LODPercentile(0.8)))
		}); err != nil {
		return nil, err
	}

	if err := table("visibility (p85 plane, ROI 10%)", []string{"HDoV", "LOD-R-tree"},
		func(i int) (float64, error) {
			return avgPlanes(b.HDoV, func(qp geom.QueryPlane) error {
				var err error
				if i == 0 {
					_, err = b.HDoV.QueryPlane(qp)
				} else {
					_, err = b.HDoV.QueryPlaneLODRTree(qp)
				}
				return err
			})
		}); err != nil {
		return nil, err
	}

	for _, s := range []dmesh.ColdMeasurable{b.DM, b.HDoV} {
		if err := s.DropCaches(); err != nil {
			return nil, err
		}
		s.ResetStats()
	}
	return fig, nil
}

func printAblation(w io.Writer, fig *AblationFigure) error {
	fmt.Fprintf(w, "\nAblations (%s, mean DA/query):\n", fig.Name)
	for _, t := range fig.Tables {
		fmt.Fprintf(w, "  %s:\n", t.Title)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		for _, c := range t.Cases {
			fmt.Fprintf(tw, "    %s\t%.1f\n", c.Case, c.DA)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}
