package tilecache

import (
	"math"
	"reflect"
	"testing"

	"dmesh/internal/geom"
)

func testGrid() *Grid {
	g, err := NewGrid(geom.Rect{MinX: -0.02, MinY: 0, MaxX: 1.01, MaxY: 1}, 4, []float64{0.1, 0.5, 2.0})
	if err != nil {
		panic(err)
	}
	return g
}

func TestSnapE(t *testing.T) {
	g := testGrid()
	cases := []struct {
		e       float64
		band    int
		snapped float64
	}{
		{0.05, 0, 0.1}, // below the ladder: lowest rung
		{0.1, 0, 0.1},  // exact rung
		{0.3, 0, 0.1},  // between rungs: snap down
		{0.5, 1, 0.5},
		{1.9, 1, 0.5},
		{2.0, 2, 2.0},
		{7.0, 2, 2.0}, // above the ladder: top rung
	}
	for _, c := range cases {
		band, snapped := g.SnapE(c.e)
		if band != c.band || snapped != c.snapped {
			t.Errorf("snapE(%g) = (%d, %g), want (%d, %g)", c.e, band, snapped, c.band, c.snapped)
		}
	}
}

func TestLevelFor(t *testing.T) {
	g := testGrid()
	cases := []struct {
		r     geom.Rect
		level int
	}{
		{geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 0},           // whole space
		{geom.Rect{MinX: 0, MinY: 0, MaxX: 0.5, MaxY: 0.5}, 1},       // exactly one level-1 tile
		{geom.Rect{MinX: 0, MinY: 0, MaxX: 0.3, MaxY: 0.3}, 1},       // between: snap to coarser
		{geom.Rect{MinX: 0, MinY: 0, MaxX: 0.25, MaxY: 0.1}, 2},      // max dimension rules
		{geom.Rect{MinX: 0, MinY: 0, MaxX: 0.01, MaxY: 0.01}, 4},     // tiny: clamp to maxLevel
		{geom.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.3, MaxY: 0.3}, 4},   // zero-area
		{geom.Rect{MinX: -0.5, MinY: -0.5, MaxX: 1.5, MaxY: 1.5}, 0}, // oversized: clamp to 0
	}
	for _, c := range cases {
		if lv := g.LevelFor(c.r); lv != c.level {
			t.Errorf("levelFor(%v) = %d, want %d", c.r, lv, c.level)
		}
	}
}

func TestCoverBoundaryAndDegenerate(t *testing.T) {
	g := testGrid()

	// ROI exactly on level-2 tile boundaries: inclusive boundaries pull in
	// the touching row/column of tiles on the max side.
	r := geom.Rect{MinX: 0.25, MinY: 0.25, MaxX: 0.5, MaxY: 0.5}
	got := g.Cover(r, 2, 1)
	want := []Key{
		{Level: 2, IX: 1, IY: 1, Band: 1}, {Level: 2, IX: 2, IY: 1, Band: 1},
		{Level: 2, IX: 1, IY: 2, Band: 1}, {Level: 2, IX: 2, IY: 2, Band: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("boundary cover = %v, want %v", got, want)
	}

	// Degenerate zero-area ROI on a tile corner: a single tile (the one
	// whose min corner it is).
	p := geom.Rect{MinX: 0.5, MinY: 0.5, MaxX: 0.5, MaxY: 0.5}
	got = g.Cover(p, 1, 0)
	want = []Key{{Level: 1, IX: 1, IY: 1, Band: 0}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("zero-area cover = %v, want %v", got, want)
	}

	// ROI past the data space: indices clamp to the border tiles.
	o := geom.Rect{MinX: -3, MinY: 0.6, MaxX: 9, MaxY: 0.6}
	got = g.Cover(o, 1, 2)
	want = []Key{{Level: 1, IX: 0, IY: 1, Band: 2}, {Level: 1, IX: 1, IY: 1, Band: 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("clamped cover = %v, want %v", got, want)
	}

	// Covers come out in Key total order.
	for i := 1; i < len(got); i++ {
		if !got[i-1].Less(got[i]) {
			t.Fatalf("cover not sorted: %v", got)
		}
	}
}

func TestRectForBorderWidening(t *testing.T) {
	g := testGrid()

	// Interior tile: exact binary-fraction boundaries.
	in := g.RectFor(Key{Level: 2, IX: 1, IY: 1})
	if in != (geom.Rect{MinX: 0.25, MinY: 0.25, MaxX: 0.5, MaxY: 0.5}) {
		t.Errorf("interior tile = %v", in)
	}

	// Border tiles stretch to the data space, which here pokes out of the
	// unit square on both x sides but not in y.
	bl := g.RectFor(Key{Level: 2, IX: 0, IY: 0})
	if bl.MinX != g.DataRect().MinX || bl.MinY != 0 {
		t.Errorf("min border tile = %v", bl)
	}
	tr := g.RectFor(Key{Level: 2, IX: 3, IY: 3})
	if tr.MaxX != g.DataRect().MaxX || tr.MaxY != 1 {
		t.Errorf("max border tile = %v", tr)
	}

	// Adjacent tiles share their interior boundary exactly.
	a, b := g.RectFor(Key{Level: 3, IX: 2, IY: 5}), g.RectFor(Key{Level: 3, IX: 3, IY: 5})
	if a.MaxX != b.MinX {
		t.Errorf("interior seam mismatch: %v vs %v", a, b)
	}

	// Level-0 cover is a single tile spanning the whole data space.
	whole := g.RectFor(Key{Level: 0, IX: 0, IY: 0})
	if !whole.ContainsRect(g.DataRect()) {
		t.Errorf("level-0 tile %v does not contain data space %v", whole, g.DataRect())
	}
}

func TestKeyLessTotalOrder(t *testing.T) {
	ks := []Key{
		{Level: 1, IX: 0, IY: 0, Band: 0},
		{Level: 0, IX: 1, IY: 1, Band: 2},
		{Level: 1, IX: 1, IY: 0, Band: 0},
		{Level: 1, IX: 0, IY: 0, Band: 1},
		{Level: 1, IX: 0, IY: 1, Band: 0},
	}
	for i, a := range ks {
		for j, b := range ks {
			if i == j {
				if a.Less(b) {
					t.Fatalf("key %v less than itself", a)
				}
				continue
			}
			if a.Less(b) == b.Less(a) {
				t.Fatalf("Less not antisymmetric for %v, %v", a, b)
			}
		}
	}
}

func TestValidKey(t *testing.T) {
	g := testGrid()
	valid := []Key{
		{Level: 0, IX: 0, IY: 0, Band: 0},
		{Level: 4, IX: 15, IY: 15, Band: 2},
		{Level: 2, IX: 3, IY: 0, Band: 1},
	}
	for _, k := range valid {
		if !g.ValidKey(k) {
			t.Errorf("ValidKey(%v) = false, want true", k)
		}
	}
	invalid := []Key{
		{Level: -1, IX: 0, IY: 0, Band: 0}, // negative level
		{Level: 5, IX: 0, IY: 0, Band: 0},  // past maxLevel
		{Level: 2, IX: 4, IY: 0, Band: 0},  // column outside 2^2 grid
		{Level: 2, IX: 0, IY: -1, Band: 0}, // negative row
		{Level: 2, IX: 0, IY: 0, Band: 3},  // band off the ladder
		{Level: 2, IX: 0, IY: 0, Band: -1},
	}
	for _, k := range invalid {
		if g.ValidKey(k) {
			t.Errorf("ValidKey(%v) = true, want false", k)
		}
	}
}

// TestNewGridRejectsWhatItCannotAddress: a ladder that is empty, repeats
// a rung or holds a NaN or an infinite one, and a depth outside [0, 52],
// are refused; at depth 52, the deepest, Cover's keys are valid and their
// footprints exact, and depth 0 selects 4.
func TestNewGridRejectsWhatItCannotAddress(t *testing.T) {
	unit := geom.Rect{MaxX: 1, MaxY: 1}
	for _, tc := range []struct {
		name     string
		maxLevel int
		ladder   []float64
	}{
		{"empty ladder", 4, nil},
		{"duplicate rung", 4, []float64{1, 1}},
		{"NaN rungs", 4, []float64{math.NaN(), 1, math.NaN()}},
		{"one NaN rung", 4, []float64{math.NaN()}},
		{"+Inf rung", 4, []float64{1, math.Inf(1)}},
		{"-Inf rung", 4, []float64{math.Inf(-1), 1}},
		{"negative depth", -1, []float64{1}},
		{"depth 53", 53, []float64{1}},
		{"depth 63", 63, []float64{1}},
		{"depth 64", 64, []float64{1}},
	} {
		if g, err := NewGrid(unit, tc.maxLevel, tc.ladder); err == nil {
			t.Errorf("%s: NewGrid accepted it, ladder %v, depth %d", tc.name, g.Ladder(), g.MaxLevel())
		}
	}
	if g, err := NewGrid(unit, 0, []float64{1}); err != nil || g.MaxLevel() != 4 {
		t.Fatalf("depth 0: %v, %v; want the default depth 4", g, err)
	}
	g, err := NewGrid(unit, 52, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []geom.Rect{unit, {MinX: 1, MinY: 1, MaxX: 1, MaxY: 1}, {MinX: 0.5, MinY: 0.25, MaxX: 0.5, MaxY: 0.25}} {
		for _, k := range g.Cover(r, g.LevelFor(r), 0) {
			if !g.ValidKey(k) {
				t.Fatalf("Cover(%v) at depth 52 gave key %v, which the grid rejects", r, k)
			}
			side := math.Ldexp(1, -k.Level)
			want := geom.Rect{MinX: float64(k.IX) * side, MinY: float64(k.IY) * side,
				MaxX: float64(k.IX+1) * side, MaxY: float64(k.IY+1) * side}
			if got := g.RectFor(k); got != want || got.MaxX-got.MinX != side {
				t.Fatalf("RectFor(%v) = %v, want %v", k, got, want)
			}
		}
	}
}

// TestKeyStringCanonical pins the canonical key spelling: it is the byte
// string the cluster ring hashes, so changing it re-shards every cluster.
func TestKeyStringCanonical(t *testing.T) {
	k := Key{Level: 3, IX: 5, IY: 2, Band: 1}
	if got, want := k.String(), "3/2/5/1"; got != want {
		t.Fatalf("Key.String() = %q, want %q", got, want)
	}
}

// TestTopK checks the replication-policy ranking: hits descending, Key
// total-order tie-breaks, input untouched, k clamped.
func TestTopK(t *testing.T) {
	in := []TileStat{
		{Key: Key{Level: 2, IX: 1, IY: 0, Band: 0}, Hits: 3},
		{Key: Key{Level: 1, IX: 0, IY: 0, Band: 0}, Hits: 7},
		{Key: Key{Level: 2, IX: 0, IY: 0, Band: 1}, Hits: 3},
		{Key: Key{Level: 2, IX: 0, IY: 0, Band: 0}, Hits: 3},
		{Key: Key{Level: 0, IX: 0, IY: 0, Band: 0}, Hits: 1},
	}
	orig := append([]TileStat(nil), in...)
	got := TopK(in, 4)
	want := []Key{
		{Level: 1, IX: 0, IY: 0, Band: 0}, // 7 hits
		{Level: 2, IX: 0, IY: 0, Band: 0}, // 3 hits, smallest key
		{Level: 2, IX: 0, IY: 0, Band: 1}, // 3 hits
		{Level: 2, IX: 1, IY: 0, Band: 0}, // 3 hits, largest key
	}
	if len(got) != len(want) {
		t.Fatalf("TopK returned %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i] {
			t.Errorf("rank %d = %v, want %v", i, got[i].Key, want[i])
		}
	}
	if !reflect.DeepEqual(in, orig) {
		t.Error("TopK mutated its input")
	}
	if n := len(TopK(in, 0)); n != len(in) {
		t.Errorf("TopK(stats, 0) returned %d entries, want all %d", n, len(in))
	}
	if n := len(TopK(in, 100)); n != len(in) {
		t.Errorf("TopK(stats, 100) returned %d entries, want %d", n, len(in))
	}
}
