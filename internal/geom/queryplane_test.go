package geom

import (
	"math"
	"testing"
)

func TestEAtLinearAlongAxis(t *testing.T) {
	qp := QueryPlane{R: Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 2}, EMin: 10, EMax: 30, Axis: 1}
	cases := []struct {
		y    float64
		want float64
	}{
		{0, 10}, {1, 20}, {2, 30},
		{-5, 10}, // clamped below
		{9, 30},  // clamped above
	}
	for _, c := range cases {
		if got := qp.EAt(0.5, c.y); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("EAt(y=%g) = %g, want %g", c.y, got, c.want)
		}
	}
	// x has no effect on an axis-1 plane.
	if qp.EAt(0, 1) != qp.EAt(1, 1) {
		t.Error("axis-1 plane must ignore x")
	}
}

func TestEAtAxisX(t *testing.T) {
	qp := QueryPlane{R: Rect{MinX: 2, MinY: 0, MaxX: 4, MaxY: 1}, EMin: 0, EMax: 8, Axis: 0}
	if got := qp.EAt(3, 0.5); math.Abs(got-4) > 1e-12 {
		t.Fatalf("EAt(x=3) = %g, want 4", got)
	}
}

func TestEAtDegenerateROI(t *testing.T) {
	qp := QueryPlane{R: Rect{MinX: 1, MinY: 1, MaxX: 1, MaxY: 1}, EMin: 5, EMax: 7, Axis: 1}
	if got := qp.EAt(1, 1); got != 5 {
		t.Fatalf("zero-extent ROI EAt = %g, want EMin", got)
	}
}

func TestMinOver(t *testing.T) {
	qp := QueryPlane{R: Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, EMin: 0, EMax: 10, Axis: 1}
	sub := Rect{MinX: 0.2, MinY: 0.3, MaxX: 0.8, MaxY: 0.9}
	if got := qp.MinOver(sub); math.Abs(got-3) > 1e-12 {
		t.Fatalf("MinOver = %g, want 3 (the near edge requirement)", got)
	}
	// Invalid rect -> no requirement (EMax).
	if got := qp.MinOver(Rect{MinX: 1, MaxX: 0, MinY: 0, MaxY: 1}); got != 10 {
		t.Fatalf("MinOver(invalid) = %g", got)
	}
}

func TestAngleAndPlaneForAngleRoundTrip(t *testing.T) {
	r := Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 0.5}
	for _, angle := range []float64{0.1, 0.5, 1.0} {
		qp := PlaneForAngle(r, 2, angle, 1)
		if qp.EMin != 2 {
			t.Errorf("EMin changed: %g", qp.EMin)
		}
		wantEMax := 2 + math.Tan(angle)*r.Height()
		if math.Abs(qp.EMax-wantEMax) > 1e-12 {
			t.Errorf("EMax = %g, want %g", qp.EMax, wantEMax)
		}
	}
}

func TestAngleDegenerate(t *testing.T) {
	if MaxAngle(3, 0) != math.Pi/2 {
		t.Fatal("MaxAngle over zero extent must be pi/2")
	}
	if got, want := MaxAngle(1, 1), math.Pi/4; math.Abs(got-want) > 1e-12 {
		t.Fatalf("MaxAngle(1,1) = %g", got)
	}
}
