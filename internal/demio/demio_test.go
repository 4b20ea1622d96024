package demio

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"dmesh/internal/geom"
	"dmesh/internal/heightfield"
)

const sampleGrid = `ncols 4
nrows 4
xllcorner 100.0
yllcorner 200.0
cellsize 30.0
NODATA_value -9999
1 2 3 4
5 6 7 8
9 10 11 12
13 14 15 16
`

func TestReadASCIIGrid(t *testing.T) {
	g, hdr, err := ReadASCIIGrid(strings.NewReader(sampleGrid))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Cols != 4 || hdr.Rows != 4 || hdr.CellSize != 30 || hdr.XLLCorner != 100 || hdr.YLLCorner != 200 {
		t.Fatalf("header: %+v", hdr)
	}
	if !hdr.HasNoData || hdr.NoDataValue != -9999 {
		t.Fatalf("no-data: %+v", hdr)
	}
	if g.Size != 4 {
		t.Fatalf("size = %d", g.Size)
	}
	// The first data row is the NORTH edge: it must land at j = Size-1.
	if g.At(0, 3) != 1 || g.At(3, 3) != 4 {
		t.Fatalf("north row misplaced: %v %v", g.At(0, 3), g.At(3, 3))
	}
	if g.At(0, 0) != 13 || g.At(3, 0) != 16 {
		t.Fatalf("south row misplaced: %v %v", g.At(0, 0), g.At(3, 0))
	}
}

func TestReadASCIIGridNoData(t *testing.T) {
	src := strings.Replace(sampleGrid, "11", "-9999", 1)
	g, _, err := ReadASCIIGrid(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	// The no-data cell is filled with the minimum valid height (1).
	if got := g.At(2, 1); got != 1 {
		t.Fatalf("no-data cell = %g, want min valid 1", got)
	}
}

func TestReadASCIIGridNonSquareCrops(t *testing.T) {
	src := `ncols 6
nrows 4
xllcorner 0
yllcorner 0
cellsize 1
1 2 3 4 5 6
7 8 9 10 11 12
13 14 15 16 17 18
19 20 21 22 23 24
`
	g, _, err := ReadASCIIGrid(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.Size != 4 {
		t.Fatalf("cropped size = %d, want 4", g.Size)
	}
	// Center crop drops one column on each side: the north row starts at 2.
	if g.At(0, 3) != 2 || g.At(3, 3) != 5 {
		t.Fatalf("crop misaligned: %v..%v", g.At(0, 3), g.At(3, 3))
	}
}

var gridErrors = []string{
	"ncols 1\nnrows 4\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2 3 4\n",
	"ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2 3\n", // short data
	"ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2 3 oops\n",
	"ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -1\n-1 -1 -1 -1\n",
}

// hostileHeaders claim far more cells than the bytes after them hold. The
// reader used to allocate what the header claimed before reading a height:
// the first panicked (makeslice: cap out of range), the second asked for
// 80 GB, and the third claims more cells than an int counts.
var hostileHeaders = []string{
	"ncols 2147483648\nnrows 2147483648\n1\n",
	"ncols 100000\nnrows 100000\n1 2 3 4\n",
	"ncols 4611686018427387904\nnrows 4\n1\n",
}

func TestReadASCIIGridErrors(t *testing.T) {
	for i, src := range gridErrors {
		if _, _, err := ReadASCIIGrid(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestReadASCIIGridDistrustsItsHeader(t *testing.T) {
	for _, src := range hostileHeaders {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := ReadASCIIGrid(strings.NewReader(src))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%q: accepted", src)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Errorf("%q: allocated %d bytes reading %d", src, got, len(src))
		}
	}
}

const sampleXYZ = `# survey points
100 200 5
300 200 7

100 400 9
300 400 11
`

func TestReadXYZ(t *testing.T) {
	pts, bounds, err := ReadXYZ(strings.NewReader(sampleXYZ))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("got %d points", len(pts))
	}
	if bounds != (geom.Rect{MinX: 100, MinY: 200, MaxX: 300, MaxY: 400}) {
		t.Fatalf("bounds = %v", bounds)
	}
	// Normalized into the unit square with heights untouched.
	if pts[0] != (geom.Point3{X: 0, Y: 0, Z: 5}) {
		t.Fatalf("first point = %v", pts[0])
	}
	if pts[3] != (geom.Point3{X: 1, Y: 1, Z: 11}) {
		t.Fatalf("last point = %v", pts[3])
	}
}

var xyzErrors = []string{
	"1 2 3\n4 5 6\n",        // too few
	"1 2\n3 4 5\n6 7 8\n",   // short line
	"a b c\n1 2 3\n4 5 6\n", // parse error
	"1 5 0\n2 5 1\n3 5 2\n", // collinear along y
}

// badCoordinates each hold one coordinate that would make every
// normalized x or y NaN: a non-finite one on line 3, or an extent beyond
// the largest float64.
var badCoordinates = []string{
	"0 0 1\n1 0 2\nnan 1 3\n1 1 4\n",
	"0 0 1\n1 0 2\n0 -Inf 3\n1 1 4\n",
	"0 0 1\n-1e308 0 2\n1e308 1 3\n",
}

func TestReadXYZErrors(t *testing.T) {
	for i, src := range xyzErrors {
		if _, _, err := ReadXYZ(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestReadXYZRejectsBadCoordinates: one bad x or y is an error naming its
// line, not a point set whose every normalized coordinate is NaN.
func TestReadXYZRejectsBadCoordinates(t *testing.T) {
	for i, src := range badCoordinates {
		_, _, err := ReadXYZ(strings.NewReader(src))
		if err == nil {
			t.Errorf("case %d: accepted", i)
		} else if i < 2 && !strings.Contains(err.Error(), "line 3") {
			t.Errorf("case %d: %v does not name line 3", i, err)
		}
	}
}

func TestXYZRoundTrip(t *testing.T) {
	g := heightfield.Highland(9, 2)
	pts := g.SampleIrregular(50, 4)
	var buf bytes.Buffer
	if err := WriteXYZ(&buf, pts); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadXYZ(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pts) {
		t.Fatalf("round trip count %d vs %d", len(got), len(pts))
	}
	// Input was already unit-square so normalization is identity.
	for i := range pts {
		if d := pts[i].Dist(got[i]); d > 1e-9 {
			t.Fatalf("point %d moved by %g", i, d)
		}
	}
}
