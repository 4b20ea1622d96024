package dm

import (
	"fmt"
	"testing"

	"dmesh/internal/geom"
)

// allLayouts is both physical layouts, the fixed encoding first.
var allLayouts = []Layout{LayoutSTR, LayoutPacked}

// inflateConn returns a copy of ds whose connection lists include
// synthetic high-valence fixtures of the given lengths, spread across
// distinct nodes. Padding IDs start at len(nodes), beyond every real
// node: they are never indexed, never fetched, and never live, so query
// answers are unchanged — but record encoding, overflow chains, and the
// packed layout's spill path all get exercised at real chain lengths.
// Lists stay sorted ascending and unique (real IDs < N <= padding IDs).
func inflateConn(ds *Dataset, lengths ...int) *Dataset {
	conn := make([][]int64, len(ds.Conn))
	copy(conn, ds.Conn)
	n := int64(len(ds.Conn))
	stride := n / int64(len(lengths)+1)
	for i, length := range lengths {
		id := int64(i+1) * stride
		padded := append([]int64(nil), ds.Conn[id]...)
		for k := int64(0); len(padded) < length; k++ {
			padded = append(padded, n+id*100000+k)
		}
		conn[id] = padded
	}
	return &Dataset{Tree: ds.Tree, Conn: conn}
}

// overflowLengths covers every encoding regime: just past the fixed
// inline capacity (12), a multi-record fixed chain, lists of hundreds and
// over a thousand IDs (long fixed chains, still wholly inline when
// packed), and a list long enough that even the packed encoding's 1-2
// byte deltas overrun a slotted page and spill (the fixture's padding IDs
// are consecutive, so ~4088 packed bytes need >4000 entries).
var overflowLengths = []int{ConnInline + 1, 5 * OverflowFanout, varOverflowFanout + 10, 2*varOverflowFanout + 200, 4500}

func buildDatasetOnly(t testing.TB, size int, name string) *Dataset {
	t.Helper()
	ds, _ := buildDataset(t, size, name)
	return ds
}

// TestLayoutsProduceIdenticalResults verifies that the physical record
// order and encoding change cost but never answers: a store built
// directly in each layout returns the same mesh, in the same order, for
// the same query. The dataset carries inflated connection lists so the
// overflow encodings of both record formats are in play.
func TestLayoutsProduceIdenticalResults(t *testing.T) {
	base, _ := buildDataset(t, 8, "highland")
	ds := inflateConn(base, overflowLengths...)
	stores := make([]*Store, len(allLayouts))
	for i, l := range allLayouts {
		s, err := BuildStore(ds, StorePools{Layout: l})
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = s
	}
	queries := []struct {
		r geom.Rect
		e float64
	}{
		{fullRect(), eAtPercentile(ds, 0.5)},
		{geom.Rect{MinX: 0.2, MinY: 0.3, MaxX: 0.7, MaxY: 0.9}, eAtPercentile(ds, 0.2)},
		{geom.Rect{MinX: 0.4, MinY: 0.4, MaxX: 0.5, MaxY: 0.5}, eAtPercentile(ds, 0.8)},
	}
	for qi, q := range queries {
		want, err := stores[0].ViewpointIndependent(q.r, q.e)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(stores); i++ {
			got, err := stores[i].ViewpointIndependent(q.r, q.e)
			if err != nil {
				t.Fatal(err)
			}
			requireSameMesh(t, fmt.Sprintf("query %d, layout %v vs %v", qi, allLayouts[i], allLayouts[0]), got, want)
		}
	}
}

// TestLayoutsAnswerEveryQueryKindIdentically: a store built directly in
// each layout answers every query kind exactly like the str store — the
// same mesh, in the same ascending Result order — uniform (several ROIs
// and LODs), single-base, explicit multi-base strip plans,
// temporally coherent frame sequences, and tile materialization +
// stitching — on both datasets. The datasets carry inflated connection
// lists so the overflow encodings of both record formats are in play.
// Plans come from the str store's cost model and run on every store
// explicitly: each layout's own R*-tree yields its own model and possibly
// different plans, which legitimately fetch different (equally correct)
// record sets; the property under test is physical-layout transparency
// for the same logical query.
func TestLayoutsAnswerEveryQueryKindIdentically(t *testing.T) {
	for _, name := range []string{"highland", "crater"} {
		ds := inflateConn(buildDatasetOnly(t, 9, name), overflowLengths...)
		stores := make([]*Store, len(allLayouts))
		for i, l := range allLayouts {
			s, err := BuildStore(ds, StorePools{Layout: l})
			if err != nil {
				t.Fatal(err)
			}
			stores[i] = s
		}
		src := stores[0]
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

		for i, s := range stores[1:] {
			ctx := fmt.Sprintf("%s/%v vs %v", name, allLayouts[i+1], allLayouts[0])
			same := func(kind string, q func(*Store) (*Result, error)) {
				t.Helper()
				want, err := q(src)
				if err != nil {
					t.Fatal(err)
				}
				got, err := q(s)
				if err != nil {
					t.Fatalf("%s %s: %v", ctx, kind, err)
				}
				requireSameMesh(t, ctx+" "+kind, got, want)
			}

			// Uniform ROI x LOD grid.
			for _, roi := range rois {
				for _, pct := range []float64{0.25, 0.6, 0.9} {
					e := eAtPercentile(ds, pct)
					same("uniform", func(st *Store) (*Result, error) { return st.ViewpointIndependent(roi, e) })
				}
			}
			same("single-base", func(st *Store) (*Result, error) { return st.SingleBase(qp) })
			// Multi-base, same explicit plan on both stores.
			same("strips", func(st *Store) (*Result, error) { return st.ExecuteStrips(qp, strips) })

			// Coherent frame sequence (a small pan), frame by frame.
			sessions := map[*Store]*CoherentSession{src: src.NewCoherentSession(nil), s: s.NewCoherentSession(nil)}
			e := eAtPercentile(ds, 0.5)
			for f := 0; f < 4; f++ {
				roi := geom.Rect{
					MinX: 0.1 + 0.05*float64(f), MinY: 0.2,
					MaxX: 0.6 + 0.05*float64(f), MaxY: 0.7,
				}
				same("coherent", func(st *Store) (*Result, error) {
					res, _, err := sessions[st].FrameUniform(roi, e)
					return res, err
				})
			}

			// Tile materialization + stitching over a 2x2 grid.
			quads := []geom.Rect{
				{MinX: 0, MinY: 0, MaxX: 0.5, MaxY: 0.5},
				{MinX: 0.5, MinY: 0, MaxX: 1, MaxY: 0.5},
				{MinX: 0, MinY: 0.5, MaxX: 0.5, MaxY: 1},
				{MinX: 0.5, MinY: 0.5, MaxX: 1, MaxY: 1},
			}
			stitchROI := geom.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.8, MaxY: 0.8}
			same("tiles", func(st *Store) (*Result, error) {
				var tiles []*TilePatch
				for _, q := range quads {
					tp, err := st.MaterializeTile(q, e)
					if err != nil {
						return nil, err
					}
					tiles = append(tiles, tp)
				}
				return StitchTiles(stitchROI, e, tiles)
			})
		}
	}
}

func TestUnknownLayoutRejected(t *testing.T) {
	ds, _ := buildDataset(t, 5, "highland")
	if _, err := BuildStore(ds, StorePools{Layout: Layout(99)}); err == nil {
		t.Fatal("unknown layout must be rejected")
	}
}

// TestOverflowChains exercises connection lists longer than the inline
// capacities end to end, for both layouts: the synthetic high-valence
// fixture guarantees chains exist at any dataset scale (real datasets at
// test sizes rarely overflow), so the chain walk is always exercised —
// single fixed records, multi-record fixed chains, and the packed
// layout's co-located variable spill.
func TestOverflowChains(t *testing.T) {
	ds := inflateConn(buildDatasetOnly(t, 10, "crater"), overflowLengths...)
	long := 0
	for _, c := range ds.Conn {
		if len(c) > ConnInline {
			long++
		}
	}
	if long < len(overflowLengths) {
		t.Fatalf("fixture produced %d overflowing lists, want >= %d", long, len(overflowLengths))
	}
	for _, layout := range allLayouts {
		s, err := BuildStore(ds, StorePools{Layout: layout})
		if err != nil {
			t.Fatalf("%v: %v", layout, err)
		}
		checked := 0
		for id, c := range ds.Conn {
			if len(c) <= ConnInline {
				continue
			}
			n, err := s.FetchByID(int64(id))
			if err != nil {
				t.Fatalf("%v: %v", layout, err)
			}
			if len(n.Conn) != len(c) {
				t.Fatalf("%v: node %d: %d conn IDs from store, want %d", layout, id, len(n.Conn), len(c))
			}
			for i := range c {
				if n.Conn[i] != c[i] {
					t.Fatalf("%v: node %d conn[%d] = %d, want %d", layout, id, i, n.Conn[i], c[i])
				}
			}
			checked++
			if checked >= 25 {
				break
			}
		}
		if checked == 0 {
			t.Fatalf("%v: fixture produced no overflowing lists", layout)
		}
	}
}
