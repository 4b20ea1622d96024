package dm

import (
	"errors"
	"slices"

	"dmesh/internal/costmodel"
	"dmesh/internal/geom"
	"dmesh/internal/obs"
)

var errFrameNeedsModel = errors.New("dm: FrameMultiBase requires a cost model")

// CoherentSession answers a sequence of temporally coherent queries —
// the frames of a terrain flyover — incrementally. It retains the
// previous frame's fetched node set (with LOD intervals) and nothing
// else; for the next frame it subtracts the covered volume from the new
// query volume, issues narrow range queries only for the newly exposed
// fragments, evicts nodes whose vertical segments left the volume, and
// reassembles the mesh over the reconciled set — connection lists make
// that pure CPU, no disk access. When the cost model predicts the delta
// plan to be no cheaper than starting over (the viewpoint jumped), the
// frame falls back to a full query and the state resets.
//
// The invariant that makes every frame exact is fetched-set equality:
// after each frame the retained record set holds precisely the nodes
// whose stored segments intersect the frame's query volume — the same set
// a from-scratch query fetches — and the mesh comes from the same assemble
// a from-scratch query runs over that set.
//
// A CoherentSession wraps its own pager.Session, so FrameStats.DA is
// the frame's exact page-read count even while other sessions share the
// store. It is not safe for concurrent use; servers keep one per
// client.
type CoherentSession struct {
	sess  *Session
	model *costmodel.Model

	cover   []geom.Box // query volume of the previous frame; nil: no state
	fetched []Node     // record set of the nodes whose segments intersect cover
}

// FrameStats describes how one coherent frame was answered.
type FrameStats struct {
	// Full reports whether the frame ran as a full query (first frame,
	// Invalidate, or cost-model fallback) instead of a delta.
	Full bool
	// Strips is the number of query cubes in the frame's plan.
	Strips int
	// Fragments is the number of uncovered delta boxes the plan reduced
	// to (0 when the frame ran full).
	Fragments int
	// Fetched is the number of node records read this frame.
	Fetched int
	// Retained is the number of nodes carried over from the previous
	// frame; Evicted is the number dropped because their segments left
	// the query volume.
	Retained, Evicted int
	// PredFullDA and PredDeltaDA are the cost model's formula (1)
	// estimates that drove the delta-vs-full decision (zero on the
	// first frame, where there is nothing to compare).
	PredFullDA, PredDeltaDA float64
	// DA is the disk accesses the frame actually paid, attributed to
	// this session only.
	DA uint64
}

// NewCoherentSession returns a coherent view of the store. The cost
// model drives the delta-vs-full fallback; a nil model disables the
// fallback (frames after the first always run the delta plan).
func (s *Store) NewCoherentSession(model *costmodel.Model) *CoherentSession {
	return &CoherentSession{sess: s.NewSession(), model: model}
}

// Invalidate drops the retained state; the next frame runs as a full
// query. Call it when the store contents changed underneath.
func (c *CoherentSession) Invalidate() {
	c.cover = nil
	c.fetched = nil
}

// EnableTrace attaches (and returns) a phase tracer to the session. The
// trace is reset at the start of every frame — frames zero the session
// counters, so a span left open across Frame would watch its sampler go
// backwards — and after a frame returns it holds that frame's spans;
// read it before the next frame. Sessions are single-goroutine and so
// is the trace.
func (c *CoherentSession) EnableTrace() *obs.Trace {
	return c.sess.NewTrace()
}

// FrameUniform answers a viewpoint-independent frame Q(M, r, e),
// incrementally when the previous frame's volume overlaps. It matches
// Store.ViewpointIndependent exactly, including the fetch clamp to the
// dataset's maximum LOD.
func (c *CoherentSession) FrameUniform(r geom.Rect, e float64) (*Result, FrameStats, error) {
	return c.frame(geom.QueryPlane{R: r, EMin: e, EMax: e}, []geom.Box{c.sess.cube(r, e, e)})
}

// Frame answers a single-base viewpoint-dependent frame, matching
// Store.SingleBase exactly.
func (c *CoherentSession) Frame(qp geom.QueryPlane) (*Result, FrameStats, error) {
	return c.frame(qp, []geom.Box{c.sess.cube(qp.R, qp.EMin, qp.EMax)})
}

// FrameMultiBase answers a multi-base viewpoint-dependent frame: the
// cost model plans the strips (as Store.MultiBase would) and the delta
// is computed against their union. Requires a cost model.
func (c *CoherentSession) FrameMultiBase(qp geom.QueryPlane, maxStrips int) (*Result, FrameStats, error) {
	if c.model == nil {
		return nil, FrameStats{}, errFrameNeedsModel
	}
	return c.FrameStrips(qp, c.model.PlanStrips(qp, maxStrips))
}

// FrameStrips answers a viewpoint-dependent frame with an explicit cube
// plan, matching Store.ExecuteStrips on the same plan exactly.
func (c *CoherentSession) FrameStrips(qp geom.QueryPlane, strips []costmodel.Strip) (*Result, FrameStats, error) {
	return c.frame(qp, stripBoxes(strips))
}

// frame is the engine: decide delta vs full, reconcile the fetched set
// with the new target volume, then assemble the mesh over it exactly as
// a one-shot query would. An inverted plane is refused (ErrInvertedPlane)
// before anything, the retained state included, changes.
func (c *CoherentSession) frame(qp geom.QueryPlane, target []geom.Box) (*Result, FrameStats, error) {
	if err := checkPlane(qp); err != nil {
		return nil, FrameStats{}, err
	}
	c.sess.ResetStats()
	// The counters just went to zero, so the trace restarts here: a span
	// held open across the reset would see its sampler go backwards.
	tr := c.sess.tr
	tr.Reset()
	tr.Begin(obs.PhaseQuery)
	st := FrameStats{Strips: len(target)}

	full := c.cover == nil
	var frags []geom.Box
	if !full {
		tr.Begin(obs.PhasePlan)
		frags = geom.Difference(target, c.cover)
		st.Fragments = len(frags)
		if c.model != nil {
			useDelta, fullDA, deltaDA := c.model.DeltaDecision(target, frags)
			st.PredFullDA, st.PredDeltaDA = fullDA, deltaDA
			full = !useDelta
		}
		tr.End()
	}

	f := c.sess.newFetcher()
	fetchBoxes := frags
	if full {
		st.Full = true
		st.Fragments = 0
		c.Invalidate()
		fetchBoxes = target
	} else {
		// Evict records whose stored segments no longer intersect the
		// target volume: the same closed-box intersection the R-tree
		// applies, so retention and (re)fetching agree bit for bit. The
		// compaction keeps the survivors ascending and zeroes the slab
		// behind them; the newly exposed records land there, and fetched
		// sorts only those and merges them in.
		before := len(c.fetched)
		f.recs = slices.DeleteFunc(c.fetched, func(n Node) bool {
			return !segmentIntersectsAny(segmentOf(&n, c.sess.maxE), target)
		})
		f.kept = len(f.recs)
		st.Retained = f.kept
		st.Evicted = before - st.Retained
	}
	var err error
	if st.Fetched, err = f.fetchEach(fetchBoxes); err != nil {
		// The retained state is mid-reconciliation; start clean. The pages
		// the frame did read are still the frame's.
		c.Invalidate()
		st.DA = c.sess.DiskAccesses()
		tr.End()
		return nil, st, err
	}
	c.fetched = f.fetched()
	c.cover = slices.Clone(target)

	res := c.sess.assemble(c.fetched, qp.EAt, qp.EMin != qp.EMax)
	res.FetchedRecords = st.Fetched
	res.Strips = len(fetchBoxes)
	st.DA = c.sess.DiskAccesses()
	tr.End() // root; after this the trace accounts for exactly st.DA
	return res, st, nil
}

// fetchEach is fetchBoxes with one R*-tree descent per box, for a frame's
// delta fragments. A one-shot query answers all its boxes in one descent
// because it starts cold or shares nothing with the next query; a session's
// frames share their index pages, and one depth-first sweep a frame over an
// index working set larger than the pool is LRU's cyclic worst case, where
// a descent per fragment re-touches the upper levels between leaves and
// keeps them resident. Measured (`dmbench -fig flyover`, highland 129²,
// pools 64/16/64/16, warm): with one descent a frame the incremental
// multi-base column rose from 94.1 to 105.5 DA a frame at 0.50 overlap and
// from 77.1 to 85.5 at 0.90.
func (f *fetcher) fetchEach(boxes []geom.Box) (int, error) {
	defer f.rd.release()
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	fetched := 0
	for i := range boxes {
		if err := f.search(sc, boxes[i:i+1]); err != nil {
			return fetched, err
		}
		n, err := f.fetchRIDs(sc.rids)
		fetched += n
		if err != nil {
			return fetched, err
		}
	}
	return fetched, nil
}

func segmentIntersectsAny(seg geom.Box, boxes []geom.Box) bool {
	for _, b := range boxes {
		if seg.Intersects(b) {
			return true
		}
	}
	return false
}
