package dm

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"dmesh/internal/costmodel"
	"dmesh/internal/geom"
	"dmesh/internal/obs"
	"dmesh/internal/storage/heapfile"
)

// fetcher runs the range queries of one Direct Mesh query, appending the
// decoded records to one slab in arrival order. It keeps only that slab
// and its record reader (the connection-list arena included): the
// search's RID lists and descent stacks are pooled scratch, borrowed for
// the length of fetchBoxes or fetchEach. fetched turns the slab into the
// record set — a []Node ascending by ID, each ID once — the only form
// fetched records take: queries assemble it, coherent sessions retain it,
// tile patches keep it.
type fetcher struct {
	s    *Store
	rd   recReader
	recs []Node
	// kept is how many records at the head of recs already form a record
	// set: a coherent frame's retained records, none for a fresh fetcher.
	kept int
	// tr carries the owning view's tracer (nil when tracing is off).
	tr *obs.Trace
}

func (s *Store) newFetcher() *fetcher {
	return &fetcher{
		s:  s,
		rd: s.newRecReader(),
		tr: s.tr,
	}
}

// oneShot recycles the fetchers of one-shot queries, whose records die
// with the query (assemble copies out all the Result keeps): the next
// query reuses the slab and the arena's chunks instead of allocating
// them. Coherent sessions and tile patches keep their records and use
// newFetcher. Idle fetchers go at the second GC.
var oneShot = sync.Pool{New: func() any { return &fetcher{rd: recReader{arena: connArena{recycle: true}}} }}

// recycle hands a oneShot fetcher back: the slab cleared, so that no
// stale Conn pins a list allocated outside the arena, the arena rewound.
func (f *fetcher) recycle() {
	clear(f.recs)
	f.recs, f.kept = f.recs[:0], 0
	f.rd.arena.free, f.rd.arena.next = nil, 0
	f.s, f.rd.cur, f.tr = nil, heapfile.VarCursor{}, nil
	oneShot.Put(f)
}

// fetched makes the slab a record set in place and returns it: ascending
// by ID, the first arrival of an ID kept and later repeats (a record on a
// boundary two boxes share, or fetched again behind the retained set a
// coherent frame seeded the slab with) dropped, the vacated tail zeroed so
// that no stale Conn pins an arena chunk. A slab already strictly
// ascending returns after one scan.
//
// Only the arrivals behind the f.kept head are sorted, so a coherent frame
// pays for what it fetched, not for what it kept. They sort as packed
// ID<<32 | position keys — fetchRecord holds IDs to [0, NumNodes()), below
// 2^32 for any store whose records fit in memory — and are gathered once,
// in ID order, into scratch, dropping repeats and the IDs the head already
// holds (the head arrived first). A backward merge then writes head and
// arrivals into the slab: each head record moves at most once, and none
// below the first arrival's ID moves at all.
func (f *fetcher) fetched() []Node {
	recs, kept := f.recs, f.kept
	sorted := true
	for i := max(kept, 1); i < len(recs) && sorted; i++ {
		sorted = recs[i-1].ID < recs[i].ID
	}
	if sorted {
		f.kept = len(recs)
		return recs
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	head, tail := recs[:kept], recs[kept:]
	keys := resize(sc.keys, len(tail))
	sc.keys = keys
	for i := range tail {
		keys[i] = uint64(tail[i].ID)<<32 | uint64(i)
	}
	slices.Sort(keys)
	merge := sc.merge[:0]
	lo := 0 // head[:lo] lies below every ID still to come
	for i, k := range keys {
		id := int64(k >> 32)
		if i > 0 && id == int64(keys[i-1]>>32) {
			continue
		}
		at, found := slices.BinarySearchFunc(head[lo:], id, func(n Node, id int64) int { return cmp.Compare(n.ID, id) })
		if lo += at; !found {
			merge = append(merge, tail[uint32(k)])
		}
	}
	// Writing from the end, slot w never passes the head record still to
	// be read (w > i while arrivals remain), and the arrivals are read from
	// scratch.
	n := kept + len(merge)
	for w, i, j := n-1, kept-1, len(merge)-1; j >= 0; w-- {
		if i >= 0 && recs[i].ID > merge[j].ID {
			recs[w] = recs[i]
			i--
		} else {
			recs[w] = merge[j]
			j--
		}
	}
	clear(recs[n:])
	clear(merge)
	sc.merge = merge[:0]
	f.recs, f.kept = recs[:n], n
	return f.recs
}

// search resolves boxes with one R*-tree descent and leaves their RIDs in
// sc.rids box-major: box 0's in the order a search for box 0 alone reports
// them, then box 1's, and so on — the list one search per box would build,
// without the root-to-leaf paths the boxes share being walked once per
// box. The descent reports (box, RID) in the tree's depth-first order; a
// stable counting sort on the box number regroups them into sc.spare, and
// the two RID buffers swap.
func (f *fetcher) search(sc *scratch, boxes []geom.Box) error {
	sc.rids, sc.boxOf = sc.rids[:0], sc.boxOf[:0]
	f.tr.Begin(obs.PhaseRTree)
	defer f.tr.End()
	one := len(boxes) == 1 // nothing to regroup: the largest RID lists are one box's
	err := f.s.rt.SearchBoxes(boxes, &sc.rt, func(q int, ref int64, _ geom.Box) bool {
		sc.rids = append(sc.rids, heapfile.RID(ref))
		if !one {
			sc.boxOf = append(sc.boxOf, int32(q))
		}
		return true
	})
	if err != nil {
		return fmt.Errorf("dm: index search: %w", err)
	}
	if one {
		return nil
	}
	next := resize(sc.next, len(boxes)+1) // next[q+1] counts box q, then next[q] is its next slot
	sc.next = next
	clear(next)
	for _, q := range sc.boxOf {
		next[q+1]++
	}
	for q := range boxes {
		next[q+1] += next[q]
	}
	grouped := resize(sc.spare, len(sc.rids))
	for i, q := range sc.boxOf {
		grouped[next[q]] = sc.rids[i]
		next[q]++
	}
	sc.rids, sc.spare = grouped, sc.rids
	return nil
}

// fetchRIDs reads the records rids names, in that order, onto the slab:
// on a store clustered on the index, leaf after leaf of RIDs that share
// data pages, which the reader's cursor turns into one pin a page. It
// returns the number of records read.
func (f *fetcher) fetchRIDs(rids []heapfile.RID) (int, error) {
	f.recs = slices.Grow(f.recs, len(rids))
	f.tr.Begin(obs.PhaseFetch)
	defer f.tr.End()
	for i, rid := range rids {
		n, err := f.s.fetchRecord(rid, &f.rd, f.tr)
		if err != nil {
			return i, err
		}
		f.recs = append(f.recs, n)
	}
	return len(rids), nil
}

// fetchBoxes retrieves every node whose vertical segment intersects one
// of boxes: one R*-tree descent for all of them, then the data-page reads
// for the matching records box by box. Keeping the per-box read order
// keeps what a search per box paid, page for page: the heap and overflow
// pools see the same accesses in the same order (so evict the same pages),
// the slab fetched() sorts is the same slab, and a record on a face two
// boxes share is still read twice and counted twice. It returns the number
// of records read (duplicates across boxes are real I/O and count). The
// search works in scratch from scratchPool, given back on return.
func (f *fetcher) fetchBoxes(boxes []geom.Box) (int, error) {
	defer f.rd.release()
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	if err := f.search(sc, boxes); err != nil {
		return 0, err
	}
	return f.fetchRIDs(sc.rids)
}

// query is the ending every one-shot query shares: fetch the boxes into
// one record set, assemble it, stamp the retrieval statistics. It runs
// under the caller's root span.
func (s *Store) query(boxes []geom.Box, need func(x, y float64) float64, lift bool) (*Result, error) {
	f := oneShot.Get().(*fetcher)
	arena := f.rd.arena
	f.s, f.rd, f.tr = s, s.newRecReader(), s.tr
	f.rd.arena = arena
	defer f.recycle()
	nf, err := f.fetchBoxes(boxes)
	if err != nil {
		return nil, err
	}
	res := s.assemble(f.fetched(), need, lift)
	res.FetchedRecords = nf
	res.Strips = len(boxes)
	return res, nil
}

// ErrInvertedPlane is what every viewpoint-dependent query and coherent
// frame returns for a query plane with EMin > EMax. Its cube would be
// inverted in e, and the R*-tree would return only the segments spanning
// the whole range — a wrong mesh, not an empty one.
var ErrInvertedPlane = errors.New("dm: query plane has EMin > EMax")

// checkPlane refuses an inverted plane (see ErrInvertedPlane).
func checkPlane(qp geom.QueryPlane) error {
	if qp.EMin > qp.EMax {
		return fmt.Errorf("%w (%g > %g)", ErrInvertedPlane, qp.EMin, qp.EMax)
	}
	return nil
}

// queryPlane answers a query plane from the given cubes. A degenerate
// plane (EMin == EMax) is a uniform cut and does not lift; an inverted one
// is refused.
func (s *Store) queryPlane(qp geom.QueryPlane, boxes []geom.Box) (*Result, error) {
	if err := checkPlane(qp); err != nil {
		return nil, err
	}
	return s.query(boxes, qp.EAt, qp.EMin != qp.EMax)
}

// cube is the query volume r x [lo, hi]; Q(M, r, e) is the degenerate
// cube r x [e, e] (Section 5.1). Stored segments clamp the roots' infinite
// tops to the dataset maximum, so the cube is clamped there too: a query
// coarser than the whole dataset still fetches the root approximation.
// Liveness keeps the caller's LOD (root intervals are stored unbounded).
func (s *Store) cube(r geom.Rect, lo, hi float64) geom.Box {
	return geom.BoxFromRect(r, min(lo, s.maxE), min(hi, s.maxE))
}

// ViewpointIndependent answers Q(M, r, e): a single range query with the
// query plane r x [e, e] retrieves exactly the nodes whose LOD interval
// covers e (Section 5.1), and their connection lists triangulate the
// result with no further I/O.
func (s *Store) ViewpointIndependent(r geom.Rect, e float64) (*Result, error) {
	s.tr.Begin(obs.PhaseQuery)
	defer s.tr.End()
	return s.queryPlane(geom.QueryPlane{R: r, EMin: e, EMax: e}, []geom.Box{s.cube(r, e, e)})
}

// SingleBase answers a viewpoint-dependent query with Algorithm 1 of the
// paper: one query cube from the plane's lowest to highest LOD, a mesh on
// the top plane, then refinement down to the query plane. The refinement
// data (every node between the plane and the top plane over r) is in the
// cube, so no further I/O is needed.
func (s *Store) SingleBase(qp geom.QueryPlane) (*Result, error) {
	s.tr.Begin(obs.PhaseQuery)
	defer s.tr.End()
	return s.queryPlane(qp, []geom.Box{s.cube(qp.R, qp.EMin, qp.EMax)})
}

// MultiBase answers a viewpoint-dependent query with the optimization of
// Section 5.3: the cost model plans several query cubes hugging the query
// plane (recursive middle splits while formula (7) predicts a disk-access
// gain), each cube is fetched with its own range query, and the combined
// records build the mesh. maxStrips caps the number of cubes (0 = the
// planner's default).
func (s *Store) MultiBase(qp geom.QueryPlane, model *costmodel.Model, maxStrips int) (*Result, error) {
	if model == nil {
		return nil, fmt.Errorf("dm: MultiBase requires a cost model")
	}
	s.tr.Begin(obs.PhaseQuery)
	defer s.tr.End()
	s.tr.Begin(obs.PhasePlan)
	strips := model.PlanStrips(qp, maxStrips)
	s.tr.End()
	return s.queryPlane(qp, stripBoxes(strips))
}

// ExecuteStrips answers a viewpoint-dependent query with an explicit cube
// plan (one range query per strip): MultiBase's ending with the plan given
// instead of optimized; ablations pass fixed plans (costmodel.EqualStrips).
func (s *Store) ExecuteStrips(qp geom.QueryPlane, strips []costmodel.Strip) (*Result, error) {
	s.tr.Begin(obs.PhaseQuery)
	defer s.tr.End()
	return s.queryPlane(qp, stripBoxes(strips))
}

// stripBoxes spells a cube plan out as its query volumes.
func stripBoxes(strips []costmodel.Strip) []geom.Box {
	boxes := make([]geom.Box, len(strips))
	for i, st := range strips {
		boxes[i] = st.Box()
	}
	return boxes
}
