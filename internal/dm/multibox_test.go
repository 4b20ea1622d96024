package dm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dmesh/internal/costmodel"
	"dmesh/internal/geom"
	"dmesh/internal/obs"
	"dmesh/internal/storage/heapfile"
)

// queryPerBox is Store.query as it ran when every query box had its own
// R*-tree descent: per box one Search from the root, then that box's
// records through the fetcher's cursor, then one assemble over the slab.
// The reference a cube plan's accounting is held to: same mesh, same
// FetchedRecords and Strips, same pages from every file.
func queryPerBox(s *Store, boxes []geom.Box, need func(x, y float64) float64, lift bool) (*Result, error) {
	f := s.newFetcher()
	defer f.rd.release()
	var rids []heapfile.RID
	fetched := 0
	for _, box := range boxes {
		rids = rids[:0]
		if err := s.rt.Search(box, func(ref int64, _ geom.Box) bool {
			rids = append(rids, heapfile.RID(ref))
			return true
		}); err != nil {
			return nil, err
		}
		for _, rid := range rids {
			n, err := s.fetchRecord(rid, &f.rd, nil)
			if err != nil {
				return nil, err
			}
			fetched++
			f.recs = append(f.recs, n)
		}
	}
	res := s.assemble(f.fetched(), need, lift)
	res.FetchedRecords = fetched
	res.Strips = len(boxes)
	return res, nil
}

// TestPlanAccountingMatchesPerBoxLoop: on both record layouts, with pools
// that hold everything and pools that evict, every cube plan answered cold
// — the cost model's and fixed ones from one strip to more strips than
// records — returns the per-box loop's canonical mesh, FetchedRecords and
// Strips, and reads the per-box loop's pages from each file; traced, it is
// one descent and one fetch whose spans account for every page. Only an
// index pool smaller than one plan's index pages tells the two apart, and
// then in the descent's favour: it reads no node twice.
func TestPlanAccountingMatchesPerBoxLoop(t *testing.T) {
	ds, _ := buildDataset(t, 65, "highland")
	rng := rand.New(rand.NewSource(28))
	var planes []geom.QueryPlane
	for _, side := range []float64{0.1, 0.2, 0.4, 0.9} {
		for i := 0; i < 2; i++ {
			x, y := rng.Float64()*(1-side), rng.Float64()*(1-side)
			emin := eAtPercentile(ds, 0.3+0.6*rng.Float64())
			planes = append(planes, geom.QueryPlane{
				R:    geom.Rect{MinX: x, MinY: y, MaxX: x + side, MaxY: y + side},
				EMin: emin, EMax: emin + (ds.MaxE()-emin)*rng.Float64(), Axis: i,
			})
		}
	}
	const tinyIndexPool = 8
	fewerIndexReads := false
	for _, layout := range []Layout{LayoutPacked, LayoutSTR} {
		for _, pools := range []StorePools{{}, {Data: 64, Overflow: 16, Index: 64, IDIndex: 16}, {Data: 64, Overflow: 16, Index: tinyIndexPool, IDIndex: 16}} {
			pools.Layout = layout
			s, err := BuildStore(ds, pools)
			if err != nil {
				t.Fatal(err)
			}
			model, err := s.CostModel()
			if err != nil {
				t.Fatal(err)
			}
			for pi, qp := range planes {
				plans := map[string][]costmodel.Strip{"planner": model.PlanStrips(qp, 0)}
				for _, k := range []int{1, 2, 7, 64} {
					plans[fmt.Sprintf("equal%d", k)] = costmodel.EqualStrips(qp, k)
				}
				for name, strips := range plans {
					label := fmt.Sprintf("%v/index pool %d/plane %d/%s", layout, pools.Index, pi, name)
					cold := func() *Session {
						if err := s.DropCaches(); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						return s.NewSession()
					}
					ref := cold()
					want, err := queryPerBox(&ref.Store, stripBoxes(strips), qp.EAt, qp.EMin != qp.EMax)
					if err != nil {
						t.Fatalf("%s: reference: %v", label, err)
					}

					run := func(q *Session) (*Result, error) {
						if name == "planner" {
							return q.MultiBase(qp, model, 0)
						}
						return q.ExecuteStrips(qp, strips)
					}
					q := cold()
					got, err := run(q)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !bytes.Equal(CanonicalMesh(got), CanonicalMesh(want)) {
						t.Errorf("%s: canonical mesh differs from the per-box loop's", label)
					}
					if got.FetchedRecords != want.FetchedRecords || got.Strips != want.Strips {
						t.Errorf("%s: fetched %d records over %d strips, per-box loop %d over %d",
							label, got.FetchedRecords, got.Strips, want.FetchedRecords, want.Strips)
					}
					if pools.Index == tinyIndexPool {
						// A plan whose index pages outnumber the pool: the
						// per-box loop re-reads shared nodes it evicted
						// between boxes, one descent reads each once.
						got, want := q.Breakdown(), ref.Breakdown()
						fewerIndexReads = fewerIndexReads || got.Index < want.Index
						if got.Index > want.Index {
							t.Errorf("%s: %d index pages read, per-box loop %d", label, got.Index, want.Index)
						}
						got.Index, want.Index = 0, 0
						if got != want {
							t.Errorf("%s: pages read %+v, per-box loop %+v", label, got, want)
						}
						continue
					}
					if q.Breakdown() != ref.Breakdown() {
						t.Errorf("%s: pages read %+v, per-box loop %+v", label, q.Breakdown(), ref.Breakdown())
					}

					// Traced: the same pages, every one attributed.
					q = cold()
					tr := q.NewTrace()
					if _, err := run(q); err != nil {
						t.Fatalf("%s traced: %v", label, err)
					}
					if q.Breakdown() != ref.Breakdown() {
						t.Errorf("%s traced: pages read %+v, per-box loop %+v", label, q.Breakdown(), ref.Breakdown())
					}
					if err := tr.CheckTotal(q.DiskAccesses()); err != nil {
						t.Errorf("%s: %v", label, err)
					}
					// One query, one descent, one fetch — whatever the plan.
					spans := map[obs.Phase]int{}
					for _, sp := range tr.Spans() {
						spans[sp.Phase]++
					}
					if spans[obs.PhaseRTree] != 1 || spans[obs.PhaseFetch] != 1 {
						t.Errorf("%s: %d rtree_descent and %d dm_fetch spans for one query",
							label, spans[obs.PhaseRTree], spans[obs.PhaseFetch])
					}
				}
			}
			// "Equal under eviction" is only tested if the small pools evict.
			if ix, data := s.rtP.Stats().Evictions, s.heapP.Stats().Evictions; pools.Index != 0 && (ix == 0 || data == 0) {
				t.Errorf("%v: small pools evicted %d index and %d data pages: fixture too small", layout, ix, data)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !fewerIndexReads {
		t.Errorf("no plan's index pages outnumbered a pool of %d: the case was not tested", tinyIndexPool)
	}
}
