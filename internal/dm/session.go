package dm

import (
	"runtime"
	"sync"
	"sync/atomic"

	"dmesh/internal/costmodel"
	"dmesh/internal/geom"
	"dmesh/internal/obs"
	"dmesh/internal/rtree"
	"dmesh/internal/storage/btree"
	"dmesh/internal/storage/heapfile"
	"dmesh/internal/storage/pager"
)

// Session is a per-query (or per-request) view of a Store that attributes
// disk accesses to itself: queries run through a Session update the
// store's global counters AND the session's own, so a server can report
// each request's cost while other requests run — no global query lock, no
// ResetStats between requests. Every page read is charged to exactly one
// session, so concurrent sessions' DiskAccesses sum to the store total.
//
// A Session embeds a Store view, so the full query API
// (ViewpointIndependent, SingleBase, MultiBase, ExecuteStrips,
// FetchByID) is available directly. Sessions are cheap to create — one
// per request is the intended pattern — and must not be shared between
// concurrent requests if their counts are to stay per-request.
// Whole-store maintenance (DropCaches, Flush, Close) belongs on the
// parent Store.
type Session struct {
	Store
	heapS, overS, rtS, idxS pager.Session
	// What the embedded Store points at in place of its parent's handles,
	// held here so that a session is one allocation.
	pagers       [4]pager.Pager
	heapV, overV heapfile.File
	vheapV       heapfile.VarFile
	rtV          rtree.Tree
	idxV         btree.Tree
}

// NewSession returns a view of the store whose queries attribute their
// disk accesses to the returned session.
func (s *Store) NewSession() *Session {
	q := &Session{Store: *s}
	q.pagers = [4]pager.Pager{*s.heapP.WithSession(&q.heapS), *s.overP.WithSession(&q.overS),
		*s.rtP.WithSession(&q.rtS), *s.idxP.WithSession(&q.idxS)}
	q.heapP, q.overP, q.rtP, q.idxP = &q.pagers[0], &q.pagers[1], &q.pagers[2], &q.pagers[3]
	if s.heap != nil {
		q.heapV = s.heap.On(q.heapP)
		q.heap = &q.heapV
	}
	if s.vheap != nil {
		q.vheapV = s.vheap.On(q.heapP)
		q.vheap = &q.vheapV
	}
	q.overV, q.rtV, q.idxV = s.over.On(q.overP), s.rt.On(q.rtP), s.idx.On(q.idxP)
	q.over, q.rt, q.idx = &q.overV, &q.rtV, &q.idxV
	// A trace is single-goroutine; a session spawned from a traced store
	// starts untraced (attach its own with NewTrace/SetTrace).
	q.tr = nil
	return q
}

// NewTrace attaches (and returns) a fresh phase tracer bound to this
// session's own disk-access counters, so span DA attribution stays
// exact while other sessions share the store's buffer pool.
func (q *Session) NewTrace() *obs.Trace {
	tr := obs.NewTrace(q.DiskAccesses)
	q.SetTrace(tr)
	return tr
}

// DiskAccesses returns the pages read by this session's queries — the
// paper's cost metric, scoped to this session only.
func (q *Session) DiskAccesses() uint64 {
	return q.heapS.Reads() + q.overS.Reads() + q.rtS.Reads() + q.idxS.Reads()
}

// Breakdown itemizes this session's disk accesses by file.
func (q *Session) Breakdown() AccessBreakdown {
	return AccessBreakdown{
		Data:     q.heapS.Reads(),
		Overflow: q.overS.Reads(),
		Index:    q.rtS.Reads(),
		IDIndex:  q.idxS.Reads(),
	}
}

// ResetStats zeroes this session's counters (the store's global counters
// are untouched; reset those on the parent Store).
func (q *Session) ResetStats() {
	q.heapS.Reset()
	q.overS.Reset()
	q.rtS.Reset()
	q.idxS.Reset()
}

// BatchQuery describes one independent query of a batch. Plane nil means
// a viewpoint-independent query Q(ROI, E); Plane non-nil is a
// viewpoint-dependent query, executed single-base unless Strips carries
// an explicit (e.g. cost-model) plan.
type BatchQuery struct {
	ROI    geom.Rect
	E      float64
	Plane  *geom.QueryPlane
	Strips []costmodel.Strip
}

// BatchResult is one query's outcome: the mesh, the disk accesses
// attributed to exactly this query, and its error if any.
type BatchResult struct {
	Res *Result
	DA  uint64
	Err error
}

// QueryBatch answers independent queries concurrently against one store
// with at most workers goroutines (<= 0 means GOMAXPROCS). Each query
// runs in its own Session, so per-query disk-access counts are exact even
// though the queries share the buffer pool. Results are positional:
// out[i] answers qs[i].
func (s *Store) QueryBatch(qs []BatchQuery, workers int) []BatchResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(qs) {
		workers = len(qs)
	}
	out := make([]BatchResult, len(qs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(qs) {
					return
				}
				out[i] = s.runBatchQuery(qs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

func (s *Store) runBatchQuery(q BatchQuery) BatchResult {
	sess := s.NewSession()
	var res *Result
	var err error
	switch {
	case q.Plane == nil:
		res, err = sess.ViewpointIndependent(q.ROI, q.E)
	case len(q.Strips) > 0:
		res, err = sess.ExecuteStrips(*q.Plane, q.Strips)
	default:
		res, err = sess.SingleBase(*q.Plane)
	}
	return BatchResult{Res: res, DA: sess.DiskAccesses(), Err: err}
}
