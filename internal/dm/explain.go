package dm

import (
	"fmt"
	"strings"

	"dmesh/internal/costmodel"
	"dmesh/internal/geom"
)

// Plan describes how a viewpoint-dependent query would execute: the cubes
// the optimizer chose and their estimated costs — the EXPLAIN of this
// little database.
type Plan struct {
	Strips []PlanStrip
	// EstimatedDA is the cost model's prediction for the whole plan as
	// the optimizer priced it: under a shared-pool model the pages two
	// adjacent cubes share are counted once, so it is the cubes' sum less
	// one boundary term per split; under the paper's model it is the sum.
	EstimatedDA float64
	// SingleBaseDA is the prediction for the unsplit single-base cube,
	// for comparison.
	SingleBaseDA float64
}

// PlanStrip is one planned range query.
type PlanStrip struct {
	Strip       costmodel.Strip
	EstimatedDA float64
}

// ExplainPlane returns the multi-base plan for qp without executing it.
func (s *Store) ExplainPlane(qp geom.QueryPlane, model *costmodel.Model, maxStrips int) (*Plan, error) {
	if model == nil {
		return nil, fmt.Errorf("dm: ExplainPlane requires a cost model")
	}
	strips, total := model.Plan(qp, maxStrips)
	p := &Plan{EstimatedDA: total}
	for _, st := range strips {
		p.Strips = append(p.Strips, PlanStrip{Strip: st, EstimatedDA: model.EstimateDA(st.Box())})
	}
	single := geom.BoxFromRect(qp.R, qp.EMin, qp.EMax)
	p.SingleBaseDA = model.EstimateDA(single)
	return p, nil
}

// String renders the plan in an EXPLAIN-like text form.
func (p *Plan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "multi-base plan: %d cube(s), estimated %.1f DA (single-base %.1f DA)\n",
		len(p.Strips), p.EstimatedDA, p.SingleBaseDA)
	for i, st := range p.Strips {
		fmt.Fprintf(&sb, "  cube %d: %v x [%.4g, %.4g]  est %.1f DA\n",
			i, st.Strip.R, st.Strip.ELow, st.Strip.EHigh, st.EstimatedDA)
	}
	return sb.String()
}
