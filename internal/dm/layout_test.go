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
