package dm

import (
	"testing"

	"dmesh/internal/geom"
	"dmesh/internal/obs"
)

// TestTraceInvariantQueries runs every query kind on both datasets with
// a trace attached and checks the DA-attribution invariant: the
// per-phase self costs sum exactly to the independently counted session
// total, and tracing changes neither the mesh nor the DA.
func TestTraceInvariantQueries(t *testing.T) {
	for _, name := range []string{"highland", "crater"} {
		ds, _ := buildDataset(t, 9, name)
		s := newTestStore(t, ds)
		model, err := s.CostModel()
		if err != nil {
			t.Fatal(err)
		}
		roi := geom.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.7, MaxY: 0.7}
		e := eAtPercentile(ds, 0.9)
		qp := geom.QueryPlane{R: roi, EMin: eAtPercentile(ds, 0.5), EMax: eAtPercentile(ds, 0.95), Axis: 1}

		kinds := []struct {
			name string
			run  func(*Store) (*Result, error)
		}{
			{"uniform", func(v *Store) (*Result, error) { return v.ViewpointIndependent(roi, e) }},
			{"single-base", func(v *Store) (*Result, error) { return v.SingleBase(qp) }},
			{"multi-base", func(v *Store) (*Result, error) { return v.MultiBase(qp, model, 8) }},
			{"fetch-by-id", func(v *Store) (*Result, error) {
				_, err := v.FetchByID(0)
				return &Result{}, err
			}},
			{"materialize", func(v *Store) (*Result, error) {
				_, err := v.MaterializeTile(roi, e)
				return &Result{}, err
			}},
		}
		for _, k := range kinds {
			// Untraced cold run: the reference mesh and DA.
			if err := s.DropCaches(); err != nil {
				t.Fatal(err)
			}
			s.ResetStats()
			s.SetTrace(nil)
			want, err := k.run(s)
			if err != nil {
				t.Fatalf("%s/%s untraced: %v", name, k.name, err)
			}
			wantDA := s.DiskAccesses()

			// Traced cold run: identical result, identical DA, exact
			// phase attribution.
			if err := s.DropCaches(); err != nil {
				t.Fatal(err)
			}
			s.ResetStats()
			tr := obs.NewTrace(s.DiskAccesses)
			s.SetTrace(tr)
			got, err := k.run(s)
			if err != nil {
				t.Fatalf("%s/%s traced: %v", name, k.name, err)
			}
			gotDA := s.DiskAccesses()
			s.SetTrace(nil)
			if gotDA != wantDA {
				t.Errorf("%s/%s: traced run cost %d DA, untraced %d", name, k.name, gotDA, wantDA)
			}
			if err := tr.CheckTotal(gotDA); err != nil {
				t.Errorf("%s/%s: %v", name, k.name, err)
			}
			if want.Vertices != nil {
				requireSameMesh(t, name+"/"+k.name, got, want)
			}
			if wantDA > 0 {
				bd := tr.Breakdown()
				if bd[obs.PhaseTriangulate] != 0 || bd[obs.PhasePlan] != 0 {
					t.Errorf("%s/%s: CPU-only phases charged DA: triangulate=%d plan=%d",
						name, k.name, bd[obs.PhaseTriangulate], bd[obs.PhasePlan])
				}
			}
		}
	}
}

// TestTraceInvariantCoherent drives the determinism test's camera walk
// with a trace enabled and checks, every frame, that the trace accounts
// for exactly FrameStats.DA with exactly one triangulate span (a frame
// assembles once, like a one-shot query) — and that the traced walk's
// FrameStats are identical to an untraced walk's (tracing cannot perturb
// the paper's numbers).
func TestTraceInvariantCoherent(t *testing.T) {
	for _, name := range []string{"highland", "crater"} {
		ds, _ := buildDataset(t, 9, name)
		emin, emax := eAtPercentile(ds, 0.5), eAtPercentile(ds, 0.95)

		run := func(traced bool) []FrameStats {
			s := newTestStore(t, ds)
			model, err := s.CostModel()
			if err != nil {
				t.Fatal(err)
			}
			if err := s.DropCaches(); err != nil {
				t.Fatal(err)
			}
			s.ResetStats()
			cs := s.NewCoherentSession(model)
			var tr *obs.Trace
			if traced {
				tr = cs.EnableTrace()
			}
			walk := newCameraWalk(77, 0.5, 0.4)
			var out []FrameStats
			for i := 0; i < 24; i++ {
				roi := walk.next(i == 8 || i == 16)
				qp := geom.QueryPlane{R: roi, EMin: emin, EMax: emax, Axis: 1}
				var st FrameStats
				if i%2 == 0 {
					_, st, err = cs.Frame(qp)
				} else {
					_, st, err = cs.FrameMultiBase(qp, 8)
				}
				if err != nil {
					t.Fatalf("%s frame %d: %v", name, i, err)
				}
				if traced {
					if err := tr.CheckTotal(st.DA); err != nil {
						t.Errorf("%s frame %d: %v", name, i, err)
					}
					tri := 0
					for _, sp := range tr.Spans() {
						if sp.Phase == obs.PhaseTriangulate {
							tri++
						}
					}
					if tri != 1 {
						t.Errorf("%s frame %d: %d triangulate spans, want 1", name, i, tri)
					}
				}
				out = append(out, st)
			}
			return out
		}
		plain, traced := run(false), run(true)
		for i := range plain {
			if plain[i] != traced[i] {
				t.Errorf("%s frame %d stats differ traced vs untraced:\n  plain  %+v\n  traced %+v",
					name, i, plain[i], traced[i])
			}
		}
	}
}

// TestSessionTraceIsolation checks that sessions never inherit a parent
// store's trace (a trace is single-goroutine) and that a session trace
// attributes against the session's own counters.
func TestSessionTraceIsolation(t *testing.T) {
	ds, _ := buildDataset(t, 8, "highland")
	s := newTestStore(t, ds)
	storeTr := obs.NewTrace(s.DiskAccesses)
	s.SetTrace(storeTr)
	sess := s.NewSession()
	if sess.tr != nil {
		t.Fatal("session inherited the store's trace")
	}
	tr := sess.NewTrace()
	roi := geom.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.6, MaxY: 0.6}
	if _, err := sess.ViewpointIndependent(roi, eAtPercentile(ds, 0.9)); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckTotal(sess.DiskAccesses()); err != nil {
		t.Error(err)
	}
	if n := len(storeTr.Spans()); n != 0 {
		t.Errorf("session query leaked %d spans into the store trace", n)
	}
}

// BenchmarkTraceOverhead measures Store.ViewpointIndependent warm, with
// no collector installed (the production default — the nil-trace fast
// path) and with a live trace, reporting allocations for both.
func BenchmarkTraceOverhead(b *testing.B) {
	ds, _ := buildDataset(b, 9, "highland")
	s := newTestStore(b, ds)
	roi := geom.Rect{MinX: 0.25, MinY: 0.25, MaxX: 0.65, MaxY: 0.65}
	e := eAtPercentile(ds, 0.9)

	b.Run("no-collector", func(b *testing.B) {
		s.SetTrace(nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.ViewpointIndependent(roi, e); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("traced", func(b *testing.B) {
		tr := obs.NewTrace(s.DiskAccesses)
		s.SetTrace(tr)
		defer s.SetTrace(nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.Reset()
			if _, err := s.ViewpointIndependent(roi, e); err != nil {
				b.Fatal(err)
			}
		}
	})
}
