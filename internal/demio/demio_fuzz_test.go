package demio

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzReadDEM throws arbitrary bytes at both readers; the first byte picks
// the format (even: ASCII grid, odd: XYZ) and the rest is the file. Nothing
// may panic, allocation stays within a constant plus a multiple of the
// input size whatever a header claims, an accepted grid has
// 2 <= Size <= min(ncols, nrows), and accepted points have finite x and y
// in the unit square.
func FuzzReadDEM(f *testing.F) {
	for _, src := range append(append([]string{sampleGrid}, gridErrors...), hostileHeaders...) {
		f.Add(append([]byte{0}, src...))
	}
	for _, src := range append(append([]string{sampleXYZ}, xyzErrors...), badCoordinates...) {
		f.Add(append([]byte{1}, src...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		r := bytes.NewReader(data[1:])
		var before, after runtime.MemStats
		if data[0]%2 == 0 {
			runtime.ReadMemStats(&before)
			g, hdr, err := ReadASCIIGrid(r)
			runtime.ReadMemStats(&after)
			checkAllocs(t, len(data), after.TotalAlloc-before.TotalAlloc)
			if err == nil && (g.Size < 2 || g.Size > min(hdr.Cols, hdr.Rows)) {
				t.Fatalf("accepted a %d-point grid from a %dx%d header", g.Size, hdr.Cols, hdr.Rows)
			}
			return
		}
		runtime.ReadMemStats(&before)
		pts, _, err := ReadXYZ(r)
		runtime.ReadMemStats(&after)
		checkAllocs(t, len(data), after.TotalAlloc-before.TotalAlloc)
		if err != nil {
			return
		}
		for i, p := range pts {
			if !(p.X >= 0 && p.X <= 1 && p.Y >= 0 && p.Y <= 1) {
				t.Fatalf("accepted point %d at (%g, %g), outside the unit square", i, p.X, p.Y)
			}
		}
	})
}

// checkAllocs fails a reader that allocated more than a constant plus a
// multiple of its input.
func checkAllocs(t *testing.T, n int, got uint64) {
	t.Helper()
	if limit := uint64(64<<10 + 64*n); got > limit {
		t.Fatalf("reading %d bytes allocated %d, limit %d", n, got, limit)
	}
}
