package dm

import (
	"fmt"

	"dmesh/internal/costmodel"
	"dmesh/internal/geom"
	"dmesh/internal/obs"
	"dmesh/internal/storage/heapfile"
)

// fetcher runs the range queries of one Direct Mesh query, reusing the
// RID list and record/overflow buffers across strips and accumulating the
// fetched nodes (keyed by node ID) in one map pre-sized from the first
// index hit count.
type fetcher struct {
	s     *Store
	rids  []heapfile.RID
	bufs  recBufs
	nodes map[int64]*Node
	// tr carries the owning view's tracer (nil when tracing is off).
	tr *obs.Trace
}

func (s *Store) newFetcher() *fetcher {
	return &fetcher{
		s:    s,
		bufs: newRecBufs(),
		tr:   s.tr,
	}
}

// fetched returns the accumulated node map (never nil).
func (f *fetcher) fetched() map[int64]*Node {
	if f.nodes == nil {
		f.nodes = make(map[int64]*Node)
	}
	return f.nodes
}

// fetchBox retrieves every node whose vertical segment intersects box:
// one R*-tree range query plus the data-page reads for the matching
// records. It returns the number of records read (duplicates across
// strips are real I/O and count).
func (f *fetcher) fetchBox(box geom.Box) (int, error) {
	f.rids = f.rids[:0]
	f.tr.Begin(obs.PhaseRTree)
	err := f.s.rt.Search(box, func(ref int64, _ geom.Box) bool {
		f.rids = append(f.rids, heapfile.RID(ref))
		return true
	})
	f.tr.End()
	if err != nil {
		return 0, fmt.Errorf("dm: index search: %w", err)
	}
	if f.nodes == nil {
		f.nodes = make(map[int64]*Node, len(f.rids))
	}
	fetched := 0
	f.tr.Begin(obs.PhaseFetch)
	for _, rid := range f.rids {
		n, err := f.s.fetchRecord(rid, &f.bufs, f.tr)
		if err != nil {
			f.tr.End()
			return fetched, err
		}
		fetched++
		if _, ok := f.nodes[n.ID]; !ok {
			node := n
			f.nodes[n.ID] = &node
		}
	}
	f.tr.End()
	return fetched, nil
}

// ViewpointIndependent answers Q(M, r, e): a single range query with the
// query plane r x [e, e] retrieves exactly the nodes whose LOD interval
// covers e (Section 5.1), and their connection lists triangulate the
// result with no further I/O.
func (s *Store) ViewpointIndependent(r geom.Rect, e float64) (*Result, error) {
	s.tr.Begin(obs.PhaseQuery)
	defer s.tr.End()
	// Stored segments clamp the roots' infinite tops to the dataset
	// maximum, so fetch at min(e, maxE): a query coarser than the whole
	// dataset still returns the root approximation. The liveness filter
	// below keeps the caller's e (root intervals are stored unbounded).
	fetchE := e
	if fetchE > s.maxE {
		fetchE = s.maxE
	}
	f := s.newFetcher()
	nf, err := f.fetchBox(geom.BoxFromRect(r, fetchE, fetchE))
	if err != nil {
		return nil, err
	}
	fetched := f.fetched()
	s.tr.Begin(obs.PhaseTriangulate)
	// The R*-tree stores closed boxes but LOD intervals are half-open:
	// a node whose EHigh equals e is fetched yet not part of the LOD-e
	// approximation. Filter, keeping the I/O already (correctly) paid.
	live := make(map[int64]*Node, len(fetched))
	for id, n := range fetched {
		if n.Interval().Contains(e) {
			live[id] = n
		}
	}
	res := assembleUniform(live)
	s.tr.End()
	res.FetchedRecords = nf
	res.Strips = 1
	return res, nil
}

// SingleBase answers a viewpoint-dependent query with Algorithm 1 of the
// paper: one query cube from the plane's lowest to highest LOD, a mesh on
// the top plane, then refinement down to the query plane. The refinement
// data (every node between the plane and the top plane over r) is in the
// cube, so no further I/O is needed.
func (s *Store) SingleBase(qp geom.QueryPlane) (*Result, error) {
	s.tr.Begin(obs.PhaseQuery)
	defer s.tr.End()
	f := s.newFetcher()
	nf, err := f.fetchBox(geom.BoxFromRect(qp.R, qp.EMin, qp.EMax))
	if err != nil {
		return nil, err
	}
	res := s.assemblePlane(qp, f.fetched())
	res.FetchedRecords = nf
	res.Strips = 1
	return res, nil
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
	return s.executeStrips(qp, strips)
}

// ExecuteStrips answers a viewpoint-dependent query with an explicit cube
// plan (one range query per strip). MultiBase uses it with the optimizer's
// plan; ablations pass fixed plans (costmodel.EqualStrips).
func (s *Store) ExecuteStrips(qp geom.QueryPlane, strips []costmodel.Strip) (*Result, error) {
	s.tr.Begin(obs.PhaseQuery)
	defer s.tr.End()
	return s.executeStrips(qp, strips)
}

// executeStrips runs an explicit plan under an already-open root span
// (ExecuteStrips and MultiBase both land here).
func (s *Store) executeStrips(qp geom.QueryPlane, strips []costmodel.Strip) (*Result, error) {
	f := s.newFetcher()
	total := 0
	for _, st := range strips {
		nf, err := f.fetchBox(st.Box())
		if err != nil {
			return nil, err
		}
		total += nf
	}
	res := s.assemblePlane(qp, f.fetched())
	res.FetchedRecords = total
	res.Strips = len(strips)
	return res, nil
}

// assemblePlane turns the fetched cube contents into the approximation on
// the query plane: the live set holds every node whose LOD interval
// contains the plane's requirement at the node's own position, and
// connectivity lifts connection pairs to their live representatives.
// A degenerate plane (EMin == EMax) reduces to the uniform assembly.
func (s *Store) assemblePlane(qp geom.QueryPlane, fetched map[int64]*Node) *Result {
	s.tr.Begin(obs.PhaseTriangulate)
	defer s.tr.End()
	live := make(map[int64]*Node, len(fetched))
	for id, n := range fetched {
		if n.Interval().Contains(qp.EAt(n.Pos.X, n.Pos.Y)) {
			live[id] = n
		}
	}
	if qp.EMin == qp.EMax {
		return assembleUniform(live)
	}
	return assembleLifted(fetched, live)
}
