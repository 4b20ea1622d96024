package experiments

import (
	"fmt"

	"dmesh"
	"dmesh/internal/workload"
)

// LayoutSide is one physical layout's measurement: the store's page
// footprint plus the full per-phase DA decomposition of the paper's query
// mix against it.
type LayoutSide struct {
	Layout        string
	DataPages     int64
	OverflowPages int64
	// NumRecords sizes the density figure: records per data page is the
	// compression headline (NumRecords / DataPages).
	NumRecords int64
	Rows       []DABreakdownRow
}

// RecordsPerPage is the side's realized data-page density.
func (s *LayoutSide) RecordsPerPage() float64 {
	if s.DataPages == 0 {
		return 0
	}
	return float64(s.NumRecords) / float64(s.DataPages)
}

// TotalDA sums the side's per-kind DA.
func (s *LayoutSide) TotalDA() uint64 {
	var total uint64
	for _, r := range s.Rows {
		total += r.TotalDA
	}
	return total
}

// DataDA sums the side's data-heap disk accesses — the record-fetch loop
// plus its overflow walks, the reads the compressed encoding exists to
// cut (index descents are layout-invariant).
func (s *LayoutSide) DataDA() uint64 {
	var da uint64
	for _, r := range s.Rows {
		for _, ps := range r.Phases {
			if ps.Name == "dm_fetch" || ps.Name == "overflow_walk" {
				da += ps.DA
			}
		}
	}
	return da
}

func (b *Bundle) layoutSide(cfg workload.Config, roiFrac float64, frames int) (LayoutSide, error) {
	rows, err := b.DABreakdown(cfg, roiFrac, frames)
	if err != nil {
		return LayoutSide{}, err
	}
	return LayoutSide{
		Layout:        b.DM.Layout().String(),
		DataPages:     b.DM.DataPages(),
		OverflowPages: b.DM.OverflowPages(),
		NumRecords:    b.DM.NumNodes(),
		Rows:          rows,
	}, nil
}

// LayoutSweep is one dataset's measurement of the same workload under
// each physical layout: footprint, realized page density, and the full
// per-phase DA decomposition per layout — the same terrain and the same
// logical answers; only the record encoding and page placement differ.
type LayoutSweep struct {
	Dataset string
	Sides   []LayoutSide
}

// Side returns the sweep's side for the named layout, or nil.
func (s *LayoutSweep) Side(layout string) *LayoutSide {
	for i := range s.Sides {
		if s.Sides[i].Layout == layout {
			return &s.Sides[i]
		}
	}
	return nil
}

// SweepLayouts measures the DABreakdown query mix under each target
// layout in order, reusing the bundle's own store when its layout is in
// the list and building a shadow store for the rest. A shadow bundle
// shares the terrain and baselines but carries its own DM store and cost
// model — plans legitimately differ between layouts (each R*-tree
// calibrates its own model); the figure compares what each layout pays
// for the same workload, which is exactly what an operator choosing a
// layout sees.
func (b *Bundle) SweepLayouts(cfg workload.Config, roiFrac float64, frames int, targets []dmesh.Layout) (*LayoutSweep, error) {
	sweep := &LayoutSweep{Dataset: b.Name}
	for _, target := range targets {
		side := b
		if b.DM.Layout() != target {
			shadow := &Bundle{Name: b.Name, Terrain: b.Terrain, PM: b.PM, HDoV: b.HDoV}
			var err error
			if shadow.DM, err = b.Terrain.NewDMStoreWithPools(dmesh.StorePools{Layout: target}); err != nil {
				return nil, fmt.Errorf("experiments: layout sweep (%s): %w", target, err)
			}
			if shadow.Model, err = dmesh.NewCostModel(shadow.DM); err != nil {
				return nil, fmt.Errorf("experiments: layout sweep (%s): %w", target, err)
			}
			side = shadow
		}
		s, err := side.layoutSide(cfg, roiFrac, frames)
		if err != nil {
			return nil, fmt.Errorf("experiments: layout sweep (%s): %w", target, err)
		}
		sweep.Sides = append(sweep.Sides, s)
	}
	return sweep, nil
}
