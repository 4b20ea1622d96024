// Package demio reads and writes the plain-text DEM formats terrain data
// actually ships in: the ESRI/Arc-Info ASCII grid (the format USGS DEMs —
// like the paper's Crater Lake dataset — are commonly distributed in) and
// XYZ point lists for irregular survey data. Coordinates are normalized
// into the unit square on read, matching the rest of the pipeline.
package demio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"dmesh/internal/geom"
	"dmesh/internal/heightfield"
)

// maxLine bounds one line of either format.
const maxLine = 1 << 20

// ASCIIGridHeader carries the georeferencing of an ESRI ASCII grid.
type ASCIIGridHeader struct {
	Cols, Rows           int
	XLLCorner, YLLCorner float64
	CellSize             float64
	NoDataValue          float64
	HasNoData            bool
}

// ReadASCIIGrid parses an ESRI ASCII grid ("ncols/nrows/xllcorner/...")
// into a square heightfield grid. Non-square inputs are center-cropped to
// the largest square (the pipeline's grids are square); no-data cells are
// filled with the minimum valid height. The returned header preserves the
// original georeferencing.
func ReadASCIIGrid(r io.Reader) (*heightfield.Grid, ASCIIGridHeader, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	var hdr ASCIIGridHeader
	hdr.NoDataValue = math.NaN()

	// Header: keyword/value lines until the first line starting with a
	// number.
	var dataFirst []string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		key := strings.ToLower(fields[0])
		isKeyword := true
		switch key {
		case "ncols", "nrows":
			if len(fields) != 2 {
				return nil, hdr, fmt.Errorf("demio: malformed header line %q", line)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, hdr, fmt.Errorf("demio: %s: %w", key, err)
			}
			if key == "ncols" {
				hdr.Cols = v
			} else {
				hdr.Rows = v
			}
		case "xllcorner", "yllcorner", "cellsize", "nodata_value":
			if len(fields) != 2 {
				return nil, hdr, fmt.Errorf("demio: malformed header line %q", line)
			}
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return nil, hdr, fmt.Errorf("demio: %s: %w", key, err)
			}
			switch key {
			case "xllcorner":
				hdr.XLLCorner = v
			case "yllcorner":
				hdr.YLLCorner = v
			case "cellsize":
				hdr.CellSize = v
			case "nodata_value":
				hdr.NoDataValue = v
				hdr.HasNoData = true
			}
		default:
			isKeyword = false
		}
		if !isKeyword {
			dataFirst = fields
			break
		}
	}
	if hdr.Cols < 2 || hdr.Rows < 2 {
		return nil, hdr, fmt.Errorf("demio: grid %dx%d too small (need ncols/nrows >= 2)", hdr.Cols, hdr.Rows)
	}
	if hdr.Cols > math.MaxInt/hdr.Rows {
		return nil, hdr, fmt.Errorf("demio: grid %dx%d has more cells than an int counts", hdr.Cols, hdr.Rows)
	}
	cells := hdr.Cols * hdr.Rows

	// The header is not trusted with an allocation: heights are kept as
	// they arrive, and their count is checked against it at the end.
	var values []float64
	consume := func(fields []string) error {
		for _, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return fmt.Errorf("demio: bad height %q: %w", f, err)
			}
			values = append(values, v)
		}
		return nil
	}
	if err := consume(dataFirst); err != nil {
		return nil, hdr, err
	}
	for sc.Scan() {
		if err := consume(strings.Fields(sc.Text())); err != nil {
			return nil, hdr, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, hdr, fmt.Errorf("demio: %w", err)
	}
	if len(values) != cells {
		return nil, hdr, fmt.Errorf("demio: got %d heights, want %d", len(values), cells)
	}

	// No-data handling: replace with the minimum valid height.
	minValid := math.Inf(1)
	valid := 0
	for _, v := range values {
		if hdr.HasNoData && v == hdr.NoDataValue {
			continue
		}
		minValid = math.Min(minValid, v)
		valid++
	}
	if valid == 0 {
		return nil, hdr, errors.New("demio: grid contains only no-data cells")
	}

	// Center-crop to the largest square.
	size := hdr.Cols
	if hdr.Rows < size {
		size = hdr.Rows
	}
	offC := (hdr.Cols - size) / 2
	offR := (hdr.Rows - size) / 2
	g := heightfield.NewGrid(size)
	for j := 0; j < size; j++ {
		for i := 0; i < size; i++ {
			// ASCII grids store rows north to south; flip so j grows with y.
			srcRow := offR + (size - 1 - j)
			v := values[srcRow*hdr.Cols+offC+i]
			if hdr.HasNoData && v == hdr.NoDataValue {
				v = minValid
			}
			g.Set(i, j, v)
		}
	}
	return g, hdr, nil
}

// ReadXYZ parses whitespace-separated "x y z" lines (comments start with
// '#'), normalizing x and y into the unit square and returning the
// original bounding rectangle. At least three points are required, and x
// and y must be finite (one NaN would make every normalized coordinate
// NaN); heights are passed on as read.
func ReadXYZ(r io.Reader) ([]geom.Point3, geom.Rect, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	var pts []geom.Point3
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, geom.Rect{}, fmt.Errorf("demio: line %d: want x y z, got %q", lineNo, line)
		}
		var v [3]float64
		for i := 0; i < 3; i++ {
			f, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, geom.Rect{}, fmt.Errorf("demio: line %d: %w", lineNo, err)
			}
			if i < 2 && (math.IsNaN(f) || math.IsInf(f, 0)) {
				return nil, geom.Rect{}, fmt.Errorf("demio: line %d: non-finite coordinate %q", lineNo, fields[i])
			}
			v[i] = f
		}
		pts = append(pts, geom.Point3{X: v[0], Y: v[1], Z: v[2]})
	}
	if err := sc.Err(); err != nil {
		return nil, geom.Rect{}, fmt.Errorf("demio: %w", err)
	}
	if len(pts) < 3 {
		return nil, geom.Rect{}, fmt.Errorf("demio: %d points, need at least 3", len(pts))
	}
	bounds := geom.PointRect(pts[0].XY())
	for _, p := range pts[1:] {
		bounds = bounds.ExpandPoint(p.XY())
	}
	w, h := bounds.Width(), bounds.Height()
	if w == 0 || h == 0 {
		return nil, bounds, errors.New("demio: points are collinear along an axis")
	}
	if math.IsInf(w, 0) || math.IsInf(h, 0) {
		return nil, bounds, errors.New("demio: point extent overflows a float64")
	}
	for i := range pts {
		pts[i].X = (pts[i].X - bounds.MinX) / w
		pts[i].Y = (pts[i].Y - bounds.MinY) / h
	}
	return pts, bounds, nil
}
