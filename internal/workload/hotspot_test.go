package workload

import (
	"reflect"
	"testing"

	"dmesh/internal/geom"
)

func TestHotSpotDeterministicAndBounded(t *testing.T) {
	h := HotSpot{Clients: 6, PerClient: 15, AreaFrac: 0.04, Seed: 9}
	a, b := h.ROIs(), h.ROIs()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config must generate identical workloads")
	}
	if len(a) != 6 || len(a[0]) != 15 {
		t.Fatalf("shape %dx%d, want 6x15", len(a), len(a[0]))
	}
	unit := geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	for ci, qs := range a {
		for qi, r := range qs {
			if unit.Union(r) != unit {
				t.Fatalf("client %d query %d ROI %v leaves the unit square", ci, qi, r)
			}
			if w, h := r.Width(), r.Height(); !near(w, 0.2) || !near(h, 0.2) {
				t.Fatalf("ROI %v has side %gx%g, want 0.2", r, w, h)
			}
		}
	}
	// Client streams differ from each other.
	if reflect.DeepEqual(a[0], a[1]) {
		t.Fatal("distinct clients generated identical streams")
	}
}

func TestHotSpotEpochsShareCenters(t *testing.T) {
	h1 := HotSpot{Seed: 4, Epoch: 0}
	h2 := HotSpot{Seed: 4, Epoch: 1}
	if !reflect.DeepEqual(h1.Centers(), h2.Centers()) {
		t.Fatal("epochs must keep the same hot centers")
	}
	if reflect.DeepEqual(h1.ROIs(), h2.ROIs()) {
		t.Fatal("epochs must draw fresh queries")
	}
}

func TestHotSpotSkew(t *testing.T) {
	h := HotSpot{Clients: 4, PerClient: 50, AreaFrac: 0.01, HotFrac: 0.9, Seed: 2}
	h.Defaults()
	centers := h.Centers()
	hot := 0
	total := 0
	for _, qs := range h.ROIs() {
		for _, r := range qs {
			total++
			c := geom.Point2{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2}
			for _, hc := range centers {
				// Hot queries sit within jitter (default side/2 = 0.05)
				// of a center, modulo the unit-square clamp.
				if absf(c.X-hc.X) <= 0.06 && absf(c.Y-hc.Y) <= 0.06 {
					hot++
					break
				}
			}
		}
	}
	if frac := float64(hot) / float64(total); frac < 0.75 {
		t.Fatalf("only %.0f%% of queries near hot centers, want ~90%%", 100*frac)
	}
}

func near(a, b float64) bool { return absf(a-b) < 1e-9 }

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
