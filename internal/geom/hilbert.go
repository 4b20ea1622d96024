package geom

// HilbertXY2D implements the 2D Hilbert curve used to lay
// terrain point records out on disk in an (x, y)-clustered order, as the
// paper requires ("terrain data is arranged on the disk in such a way that
// their (x, y) clustering is preserved as much as possible").

// HilbertXY2D returns the distance along the Hilbert curve of order k
// (a 2^k x 2^k grid) of the cell (x, y).
func HilbertXY2D(order uint, x, y uint32) uint64 {
	var d uint64
	for s := uint32(1) << (order - 1); s > 0; s >>= 1 {
		var rx, ry uint32
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		x, y = hilbertRot(s, x, y, rx, ry)
	}
	return d
}

func hilbertRot(s, x, y, rx, ry uint32) (uint32, uint32) {
	if ry == 0 {
		if rx == 1 {
			x = s - 1 - x
			y = s - 1 - y
		}
		x, y = y, x
	}
	return x, y
}

// HilbertKey maps a point in the unit square to a 32-order Hilbert curve
// distance. Points outside [0,1] are clamped. Useful as a sort key for
// spatially clustered record placement.
func HilbertKey(p Point2) uint64 {
	const order = 16
	const n = 1 << order
	x := clamp01(p.X) * (n - 1)
	y := clamp01(p.Y) * (n - 1)
	return HilbertXY2D(order, uint32(x), uint32(y))
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
