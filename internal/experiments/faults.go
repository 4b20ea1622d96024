package experiments

import (
	"errors"
	"fmt"

	"dmesh"
	"dmesh/internal/geom"
	"dmesh/internal/storage/faultfs"
	"dmesh/internal/storage/pager"
	"dmesh/internal/workload"
)

// FaultsPoint is one fault-rate row of the chaos figure: the hot-spot
// workload served off a checksummed store whose disk fails reads and
// flips bits at Rate, with a retry-once policy.
type FaultsPoint struct {
	Rate    float64
	Queries int

	OK       int // succeeded on the first attempt
	Degraded int // succeeded only on the single retry
	Failed   int // clean error from both attempts
	Wrong    int // successful answer that mismatched the oracle (must be 0)
	Panics   int // recovered panics (must be 0)

	InjectedReads uint64 // read failures the disk injected
	FlippedReads  uint64 // reads returned bit-flipped (checksums must catch)

	MeanDA float64 // mean disk accesses per successful attempt
}

// FaultsFigure is the -fig faults experiment: error-rate, degraded-answer
// rate, and DA overhead of the serving path under injected I/O faults.
type FaultsFigure struct {
	Name      string
	Clients   int
	PerClient int
	Spots     int
	EPct      float64
	Points    []FaultsPoint
}

// FaultTolerance serves the skewed hot-spot workload (serially, cold
// caches per query — the paper's discipline) off a dedicated checksummed
// store wrapped in fault injection, at each fault rate in rates. Each
// rate schedules independent read failures and read bit-flips with that
// probability. A failed query is retried once; a query that panics is
// recovered and counted. Every successful answer is cross-checked
// against a clean oracle store. A wrong answer or a panic at any rate
// fails the measurement: the point of the figure is that there are none.
func (b *Bundle) FaultTolerance(seed int64, rates []float64, clients, perClient int) (*FaultsFigure, error) {
	if clients <= 0 {
		clients = 8
	}
	if perClient <= 0 {
		perClient = 20
	}
	if len(rates) == 0 {
		rates = []float64{0, 0.002, 0.01, 0.05}
	}
	const ePct = 0.95

	// The store under test: checksums on, fault injection beneath them
	// (faults model the disk, checksums are the serving path's defense).
	var fbs []*faultfs.Backend
	pools := dmesh.StorePools{
		Checksums: true,
		WrapBackend: func(bk pager.Backend) pager.Backend {
			fb := faultfs.Wrap(bk)
			fbs = append(fbs, fb)
			return fb
		},
	}
	store, err := b.Terrain.NewDMStoreWithPools(pools)
	if err != nil {
		return nil, fmt.Errorf("experiments: faults store: %w", err)
	}
	oracle, err := b.Terrain.NewDMStore()
	if err != nil {
		return nil, fmt.Errorf("experiments: faults oracle: %w", err)
	}

	e := b.Terrain.LODPercentile(ePct)
	hs := workload.HotSpot{Clients: clients, PerClient: perClient, AreaFrac: 0.04, Seed: seed}
	hs.Defaults()
	fig := &FaultsFigure{
		Name: b.Name, Clients: hs.Clients, PerClient: hs.PerClient,
		Spots: hs.Spots, EPct: ePct,
	}

	// Flatten the client streams and precompute the oracle's answer sizes
	// once; the faulted runs are compared against these.
	var rois []geom.Rect
	for _, qs := range hs.ROIs() {
		rois = append(rois, qs...)
	}
	type answer struct{ verts, tris int }
	oracleAns := make([]answer, len(rois))
	for i, r := range rois {
		res, err := oracle.ViewpointIndependent(r, e)
		if err != nil {
			return nil, fmt.Errorf("experiments: faults oracle query %d: %w", i, err)
		}
		oracleAns[i] = answer{len(res.Vertices), len(res.Triangles)}
	}

	// attempt runs one cold query, recovering any panic into an error —
	// the experiment's job is to report panics as a count, not crash.
	attempt := func(r geom.Rect) (verts, tris int, da uint64, panicked bool, err error) {
		defer func() {
			if p := recover(); p != nil {
				panicked = true
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		if err = store.DropCaches(); err != nil {
			return
		}
		store.ResetStats()
		res, qerr := store.ViewpointIndependent(r, e)
		da = store.DiskAccesses()
		if qerr != nil {
			err = qerr
			return
		}
		return len(res.Vertices), len(res.Triangles), da, false, nil
	}

	for ri, rate := range rates {
		// Distinct seeds per rate point keep the fault pattern fixed for a
		// fixed (seed, rates) input but independent across points.
		fseed := seed ^ int64(ri+1)*1_000_003
		for _, fb := range fbs {
			fb.SetSchedule(faultfs.Read, faultfs.Schedule{Rate: rate, Seed: fseed})
			fb.SetCorrupt(faultfs.Schedule{Rate: rate, Seed: fseed + 7})
			fb.ResetStats()
		}
		pt := FaultsPoint{Rate: rate, Queries: len(rois)}
		var okDA uint64
		var okAttempts int
		for i, r := range rois {
			verts, tris, da, panicked, err := attempt(r)
			if panicked {
				pt.Panics++
			}
			degraded := false
			if err != nil {
				// Retry-once policy: transient injected faults hit different
				// access indices on the retry, so most queries recover.
				if !errors.Is(err, faultfs.ErrInjected) && !errors.Is(err, pager.ErrChecksum) && !panicked {
					return nil, fmt.Errorf("experiments: faults: non-injected error at %v: %w", r, err)
				}
				verts, tris, da, panicked, err = attempt(r)
				if panicked {
					pt.Panics++
				}
				degraded = err == nil
			}
			if err != nil {
				pt.Failed++
				continue
			}
			if degraded {
				pt.Degraded++
			} else {
				pt.OK++
			}
			okDA += da
			okAttempts++
			if verts != oracleAns[i].verts || tris != oracleAns[i].tris {
				pt.Wrong++
			}
		}
		for _, fb := range fbs {
			st := fb.Stats()
			pt.InjectedReads += st.Injected[faultfs.Read]
			pt.FlippedReads += st.Corrupted
		}
		if okAttempts > 0 {
			pt.MeanDA = float64(okDA) / float64(okAttempts)
		}
		if pt.Wrong != 0 || pt.Panics != 0 {
			return nil, fmt.Errorf("experiments: faults: %d wrong answers and %d panics at fault rate %g",
				pt.Wrong, pt.Panics, rate)
		}
		fig.Points = append(fig.Points, pt)
	}
	for _, fb := range fbs {
		fb.Heal()
	}
	return fig, nil
}
