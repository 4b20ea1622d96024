package simplify

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"dmesh/internal/delaunay"
	"dmesh/internal/geom"
	"dmesh/internal/heightfield"
	"dmesh/internal/mesh"
)

// hashSequence is SHA-256 over every field of a Sequence: floats by bit
// pattern, and a nil list distinguished from an empty one (the hashes were
// pinned with that difference in them, so it stays part of the output).
func hashSequence(s *Sequence) string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	i64 := func(x int64) { u64(uint64(x)) }
	pt := func(p geom.Point3) {
		u64(math.Float64bits(p.X))
		u64(math.Float64bits(p.Y))
		u64(math.Float64bits(p.Z))
	}
	list := func(l []int64) {
		if l == nil {
			i64(-1)
			return
		}
		i64(int64(len(l)))
		for _, x := range l {
			i64(x)
		}
	}
	lists := func(ls [][]int64) {
		i64(int64(len(ls)))
		for _, l := range ls {
			list(l)
		}
	}
	i64(int64(s.BaseVertices))
	i64(int64(len(s.Positions)))
	for _, p := range s.Positions {
		pt(p)
	}
	i64(int64(len(s.Collapses)))
	for _, c := range s.Collapses {
		i64(c.New)
		i64(c.Child1)
		i64(c.Child2)
		i64(c.Wing1)
		i64(c.Wing2)
		pt(c.Pos)
		u64(math.Float64bits(c.Err))
		list(c.Child1Adj)
	}
	list(s.Roots)
	lists(s.ConnLists)
	lists(s.InitialAdj)
	return hex.EncodeToString(h.Sum(nil))
}

// irregularMesh is a seeded survey-style point set through the Delaunay
// triangulator: hull shapes and vertex degrees a grid never produces.
func irregularMesh(t testing.TB) *mesh.Mesh {
	t.Helper()
	pts := heightfield.Highland(65, 3).SampleIrregular(1500, 11)
	pts2 := make([]geom.Point2, len(pts))
	for i, p := range pts {
		pts2[i] = p.XY()
	}
	tris, err := delaunay.Triangulate(pts2)
	if err != nil {
		t.Fatal(err)
	}
	return &mesh.Mesh{Positions: pts, Tris: tris}
}

// pinnedSequences holds hashSequence of Run's output captured at the commit
// before Run was rewritten on flat adjacency and a typed heap. A moved hash
// is a moved collapse sequence — every store, figure and golden body
// downstream moves with it — not a reason to re-pin. (The irregular QEM
// hash needed delaunay.Triangulate to return its triangles in a repeatable
// order first: Run sums quadrics in triangle order.)
var pinnedSequences = map[string]string{
	"highland/33/qem":      "8b688329b61dd8d74a2770152fc6f425cf73185734d70b6be6801c0133710244",
	"highland/33/vdist":    "14ecc953b59ce792353d0dff40fb8e2bc57925213f0f28c4102c106cde548af6",
	"highland/65/qem":      "61e9a5ab639b20a7a8eade82ddaad7025c27f62e8927003ef1a644afd3c3ae6a",
	"highland/65/vdist":    "c390591d714039a3ec1904049801ffd8d13af19968c1e5449e0b010169da6761",
	"highland/129/qem":     "ba05665abe258e0e5389b6c6c2c2006c34890735167f82b62e95316d99d59e5a",
	"highland/129/vdist":   "8f49543983ec3d33bf59a5735a621565ce578524f86f456fdb73240a8514d711",
	"crater/33/qem":        "0e7d9a030a8ee72f9b808a435d1ec1a8da78e6bc984e20c4432262cae17dfec1",
	"crater/33/vdist":      "0d9d611d87d7fce8482e98de25a3fec6c19e2035d22b2f3588b352fbeac4616f",
	"crater/65/qem":        "82083927e34bfdc65d3717b378e38ff27919b2908243a680da1b044edd112c78",
	"crater/65/vdist":      "74a75dc9f62443041f775b834259aa4a78b5ac54ea5c344f176f34eaf77116b2",
	"crater/129/qem":       "f8fe8bc53e152ed68da4f576762151ad9af21d4d304981f07b5cdd8039c80269",
	"crater/129/vdist":     "934cf71b83ba92709e188d8a6b6cb5e888cb5cb1a388c457ff209f143aa4a43c",
	"irregular/1500/qem":   "eea506ccf080f83c9f87cf08760f5cbe4a8e3782ef34f0b4830f00ca49c419b5",
	"irregular/1500/vdist": "d98304706726da904a18c60a6d04e67121a0ebb6af640a73abaa41e7508ef939",
}

var metricCases = []struct {
	name string
	m    Metric
}{{"qem", QEM}, {"vdist", VerticalDistance}}

func TestSequencePinned(t *testing.T) {
	check := func(name string, m *mesh.Mesh, metric Metric) {
		seq, err := Run(m, Options{Metric: metric})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := hashSequence(seq)
		if want, ok := pinnedSequences[name]; !ok {
			t.Errorf("%s: no pinned hash; got %s", name, got)
		} else if got != want {
			t.Errorf("%s: sequence hash %s, pinned %s", name, got, want)
		}
	}
	for _, terrain := range []string{"highland", "crater"} {
		for _, size := range []int{33, 65, 129} {
			g, err := heightfield.Named(terrain, size, 1)
			if err != nil {
				t.Fatal(err)
			}
			m := mesh.FromGrid(g)
			for _, mt := range metricCases {
				check(fmt.Sprintf("%s/%d/%s", terrain, size, mt.name), m, mt.m)
			}
		}
	}
	irr := irregularMesh(t)
	for _, mt := range metricCases {
		check("irregular/1500/"+mt.name, irr, mt.m)
	}
}
