package dm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"dmesh/internal/costmodel"
	"dmesh/internal/geom"
	"dmesh/internal/simplify"
	"dmesh/internal/storage/faultfs"
	"dmesh/internal/storage/heapfile"
	"dmesh/internal/storage/pager"
)

// TestRecordSetAgainstMapOracle holds fetcher.fetched — the one routine
// that turns arrival order into a record set, for one-shot queries and
// coherent frames alike — against the map it replaced: over ID sequences
// that are empty, ascending, descending, shuffled, and a sorted head with
// an unsorted tail (the coherent shape), with repeats within and across
// head and tail, the result is strictly ascending, holds exactly the map's
// IDs, every record still carries the payload of its ID's first arrival,
// and the slab beyond the result is zeroed.
func TestRecordSetAgainstMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ascending := func(n, max int) []int64 {
		ids := make([]int64, 0, n)
		for _, v := range rng.Perm(max)[:n] {
			ids = append(ids, int64(v))
		}
		slices.Sort(ids)
		return ids
	}
	shapes := []struct {
		name string
		ids  func() []int64
	}{
		{"empty", func() []int64 { return nil }},
		{"one", func() []int64 { return []int64{7} }},
		{"ascending", func() []int64 { return ascending(300, 5000) }},
		{"descending", func() []int64 {
			ids := ascending(300, 5000)
			slices.Reverse(ids)
			return ids
		}},
		{"shuffled with repeats", func() []int64 {
			ids := make([]int64, 400)
			for i := range ids {
				ids[i] = int64(rng.Intn(150))
			}
			return ids
		}},
		{"all equal", func() []int64 { return make([]int64, 50) }},
		{"sorted head, unsorted tail", func() []int64 {
			ids := ascending(500, 4000)
			for i := 0; i < 120; i++ {
				if i%3 == 0 { // repeats a retained record, or an earlier tail one
					ids = append(ids, ids[rng.Intn(len(ids))])
				} else {
					ids = append(ids, int64(rng.Intn(4000)))
				}
			}
			return ids
		}},
		{"sorted head, one low straggler", func() []int64 { return append(ascending(200, 1000)[1:], 0) }},
		{"high IDs", func() []int64 { return []int64{math.MaxUint32, 3, math.MaxUint32 - 1, 3, math.MaxUint32} }},
	}
	for _, shape := range shapes {
		name := shape.name
		for round := 0; round < 20; round++ {
			ids := shape.ids()
			recs := make([]Node, len(ids), len(ids)+rng.Intn(4))
			oracle := make(map[int64]int) // ID -> first arrival
			for i, id := range ids {
				recs[i] = Node{ID: id, Pos: geom.Point3{X: float64(id), Z: float64(i)}, Parent: id * 7,
					Conn: []int64{id, int64(i)}}
				if _, seen := oracle[id]; !seen {
					oracle[id] = i
				}
			}
			f := &fetcher{recs: recs}
			set := f.fetched()
			if len(set) != len(oracle) {
				t.Fatalf("%s: %d records, the map holds %d", name, len(set), len(oracle))
			}
			for j, n := range set {
				if j > 0 && set[j-1].ID >= n.ID {
					t.Fatalf("%s: not strictly ascending at %d: %d then %d", name, j, set[j-1].ID, n.ID)
				}
				first, ok := oracle[n.ID]
				if !ok {
					t.Fatalf("%s: ID %d is not in the map", name, n.ID)
				}
				if n.Pos.X != float64(n.ID) || n.Pos.Z != float64(first) || n.Parent != n.ID*7 ||
					!slices.Equal(n.Conn, []int64{n.ID, int64(first)}) {
					t.Fatalf("%s: record %d (first arrival %d) carries %+v", name, n.ID, first, n)
				}
			}
			for i, n := range recs[len(set):] {
				if !zeroNode(&n) {
					t.Fatalf("%s: stale record %+v left %d past the set", name, n, i)
				}
			}
			if again := f.fetched(); len(again) != len(set) || (len(set) > 0 && &again[0] != &set[0]) {
				t.Fatalf("%s: fetched is not idempotent", name)
			}
		}
	}
}

// zeroNode reports whether n is the zero Node: a slab slot past a record
// set, which must pin nothing.
func zeroNode(n *Node) bool {
	return n.Conn == nil && n.ID == 0 && n.Pos == (geom.Point3{}) && n.ELow == 0 && n.EHigh == 0 && n.Parent == 0
}

// readStorage reads the records of boxes below the record set — index
// search, page gets, record decode — and drops them.
func readStorage(s *Store, boxes []geom.Box) {
	rd := s.newRecReader()
	defer rd.release()
	for _, box := range boxes {
		var rids []heapfile.RID
		if err := s.rt.Search(box, func(ref int64, _ geom.Box) bool {
			rids = append(rids, heapfile.RID(ref))
			return true
		}); err != nil {
			panic(err)
		}
		for _, rid := range rids {
			if _, err := s.fetchRecord(rid, &rd, nil); err != nil {
				panic(err)
			}
		}
	}
}

// storageAllocs is what readStorage allocates: the baseline
// TestRecordSetIsFlat subtracts.
func storageAllocs(s *Store, boxes []geom.Box) float64 {
	return testing.AllocsPerRun(5, func() { readStorage(s, boxes) })
}

// storageBytes is storageAllocs in bytes, the new records' connection
// lists included.
func storageBytes(s *Store, boxes []geom.Box) float64 {
	return bytesPerRun(5, func() { readStorage(s, boxes) })
}

var resultSink *Result

// resultBytes is what res holds: the bytes of building its vertex map and
// its edge and triangle slices (at their capacities) again.
func resultBytes(res *Result) float64 {
	return bytesPerRun(5, func() {
		v := make(map[int64]geom.Point3, len(res.Vertices))
		for id, p := range res.Vertices {
			v[id] = p
		}
		resultSink = &Result{Vertices: v, Edges: make([][2]int64, len(res.Edges), cap(res.Edges)),
			Triangles: make([]geom.Triangle, len(res.Triangles), cap(res.Triangles))}
	})
}

// TestRecordSetIsFlat pins what the record set is for: holding N fetched
// records costs a few slabs, not an object per record. Beyond what the
// storage layers allocate to read them, a one-box fetch of N >= 2000
// records and a steady-state coherent frame (half its records retained,
// half newly fetched, mesh included) allocate fewer than N/4 objects; a
// heap Node per record behind a map allocates more than N. In bytes, the
// steady frame allocates beyond those reads and the mesh it returns less
// than an eighth of its record slab — a few hundred bytes, measured: the
// reconcile's sort keys and merge buffer and the assembler's working memory
// come from the scratch pool. Re-sorting the whole set over fresh keys and
// assembling in fresh buffers cost ≈ 245 KB a frame here, 1.2 slabs.
func TestRecordSetIsFlat(t *testing.T) {
	ds, _ := buildDataset(t, 65, "highland")
	s := newTestStore(t, ds)
	e := eAtPercentile(ds, 0.3)

	box := []geom.Box{s.cube(fullRect(), e, e)}
	var n int
	fetch := testing.AllocsPerRun(5, func() {
		f := s.newFetcher()
		var err error
		if n, err = f.fetchBoxes(box); err != nil {
			t.Fatal(err)
		}
		f.fetched()
	})
	if n < 2000 {
		t.Fatalf("only %d records fetched; the test wants >= 2000", n)
	}
	if over := fetch - storageAllocs(s, box); over >= float64(n)/4 {
		t.Errorf("one-box fetch of %d records allocates %.0f objects beyond the storage reads, want < %d", n, over, n/4)
	}

	// Two planes half a window apart, no cost model: every frame after the
	// first is a delta that retains about half of its records.
	plane := func(y float64) geom.QueryPlane {
		return geom.QueryPlane{R: geom.Rect{MinX: 0, MinY: y, MaxX: 1, MaxY: y + 0.5}, EMin: e, EMax: eAtPercentile(ds, 0.9), Axis: 1}
	}
	a, b := plane(0.1), plane(0.35)
	cs := s.NewCoherentSession(nil)
	var st FrameStats
	var res [2]*Result
	frames := func() {
		for i, qp := range []geom.QueryPlane{a, b} {
			var err error
			if res[i], st, err = cs.Frame(qp); err != nil {
				t.Fatal(err)
			}
		}
	}
	frames() // settle the slab's capacity
	got := testing.AllocsPerRun(5, frames)
	n = st.Retained + st.Fetched
	if st.Full || st.Retained < n/4 || st.Fetched < n/4 || n < 2000 {
		t.Fatalf("frame is not the steady-state shape the test wants: %+v", st)
	}
	boxA, boxB := []geom.Box{s.cube(a.R, a.EMin, a.EMax)}, []geom.Box{s.cube(b.R, b.EMin, b.EMax)}
	deltaA, deltaB := geom.Difference(boxA, boxB), geom.Difference(boxB, boxA)
	storage := storageAllocs(s, deltaA) + storageAllocs(s, deltaB)
	if over := (got - storage) / 2; over >= float64(n)/4 {
		t.Errorf("coherent frame over %d records allocates %.0f objects beyond the storage reads, want < %d", n, over, n/4)
	}

	if raceEnabled {
		t.Skip("-race: sync.Pool drops scratch at random")
	}
	gotBytes := bytesPerRun(5, frames)
	beyond := gotBytes - storageBytes(s, deltaA) - storageBytes(s, deltaB) - resultBytes(res[0]) - resultBytes(res[1])
	slab := float64(n) * float64(unsafe.Sizeof(Node{}))
	if over := beyond / 2; over >= slab/8 {
		t.Errorf("coherent frame over %d records allocates %.0f bytes beyond the storage reads and its mesh, want < %.0f (an eighth of the slab)",
			n, over, slab/8)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average heap bytes
// f allocates over runs calls after a warm-up call, on one P.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs)
}

// TestOneShotQueryRecyclesItsFetcher: a one-shot query's records die with
// it, so its fetcher goes back to oneShot and carries the next query. A
// warm uniform query over N >= 2000 records allocates, beyond assembling
// its mesh, less than a quarter of its record slab — a fresh fetcher
// allocates the slab, the connection-list chunks and the RID list again.
// Queries of alternating size through the recycled buffers answer exactly
// what a fresh fetcher's records assemble to.
func TestOneShotQueryRecyclesItsFetcher(t *testing.T) {
	ds, _ := buildDataset(t, 65, "highland")
	s := newTestStore(t, ds)
	e := eAtPercentile(ds, 0.3)
	need := func(float64, float64) float64 { return e }
	freshRecords := func(roi geom.Rect) []Node {
		f := s.newFetcher()
		if _, err := f.fetchBoxes([]geom.Box{s.cube(roi, e, e)}); err != nil {
			t.Fatal(err)
		}
		return f.fetched()
	}

	big, small := fullRect(), geom.Rect{MinX: 0.4, MinY: 0.4, MaxX: 0.55, MaxY: 0.5}
	for i, roi := range []geom.Rect{big, small, big, small, small, big} {
		got, err := s.ViewpointIndependent(roi, e)
		if err != nil {
			t.Fatal(err)
		}
		requireSameMesh(t, fmt.Sprintf("query %d over %v", i, roi), got, s.assemble(freshRecords(roi), need, false))
	}

	if raceEnabled {
		t.Skip("-race: sync.Pool drops fetchers at random")
	}
	// The bound below is a quarter of the slab: 80 bytes a record.
	if size := unsafe.Sizeof(Node{}); size != 80 {
		t.Fatalf("a Node is %d bytes, want 80", size)
	}
	// The build retains one Collapse per collapse, with no neighbor list.
	if size := unsafe.Sizeof(simplify.Collapse{}); size != 72 {
		t.Fatalf("a simplify.Collapse is %d bytes, want 72", size)
	}
	recs := freshRecords(big)
	if len(recs) < 2000 {
		t.Fatalf("only %d records fetched; the test wants >= 2000", len(recs))
	}
	query := bytesPerRun(5, func() {
		if _, err := s.ViewpointIndependent(big, e); err != nil {
			panic(err)
		}
	})
	assemble := bytesPerRun(5, func() { s.assemble(recs, need, false) })
	slab := float64(len(recs)) * float64(unsafe.Sizeof(Node{}))
	if over := query - assemble; over >= slab/4 {
		t.Errorf("warm query over %d records allocates %.0f bytes beyond its assembly, want < %.0f (a quarter of the slab)",
			len(recs), over, slab/4)
	}
}

// TestOneShotQueryAllocatesOnlyItsResult: a one-shot query's fetcher comes
// from oneShot and every buffer its search works in — the R*-tree
// descent's stacks, the RID list and the regroup's second list, the box
// numbers and counts — from the scratch pool, so a warm lifted query over
// a plan of k equal strips allocates what an assemble of the same records
// does, plus its plan's box list: at most 5 objects and 256 bytes + 64 a
// strip more (the list alone, 1 object and 54 B–3.0 KB, measured at
// k = 1…64). Growing the search's memory afresh cost 12–14 objects and
// 16–35 KB more.
func TestOneShotQueryAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("-race: sync.Pool drops scratch at random")
	}
	ds, _ := buildDataset(t, 65, "highland")
	s := newTestStore(t, ds)
	qp := geom.QueryPlane{R: geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.9, MaxY: 0.9},
		EMin: eAtPercentile(ds, 0.3), EMax: eAtPercentile(ds, 0.9), Axis: 1}
	for _, k := range []int{1, 4, 16, 64} {
		strips := costmodel.EqualStrips(qp, k)
		f := s.newFetcher()
		if _, err := f.fetchBoxes(stripBoxes(strips)); err != nil {
			t.Fatal(err)
		}
		recs := f.fetched()
		query := func() {
			if _, err := s.ExecuteStrips(qp, strips); err != nil {
				panic(err)
			}
		}
		assemble := func() { s.assemble(recs, qp.EAt, true) }
		query()
		objs := testing.AllocsPerRun(5, query) - testing.AllocsPerRun(5, assemble)
		bytes := bytesPerRun(5, query) - bytesPerRun(5, assemble)
		t.Logf("k = %d: %d records, %.0f objects and %.0f bytes beyond assemble", k, len(recs), objs, bytes)
		if objs > 5 {
			t.Errorf("k = %d: warm query allocates %.0f objects beyond its assembly, want at most 5", k, objs)
		}
		if limit := 256 + 64*float64(k); bytes > limit {
			t.Errorf("k = %d: warm query allocates %.0f bytes beyond its assembly, want at most %.0f", k, bytes, limit)
		}
	}
}

// TestAssembleAllocatesOnlyItsResult: every buffer assemble works in —
// the representative table, the ID index, the raw lifted pairs and their
// sorted copy, the run offsets — comes from the scratch pool, so a warm
// lifted assemble over N >= 2000 records allocates what its Result holds
// and at most a few hundred bytes more (none, measured). Allocating them
// afresh cost as much again as the Result.
func TestAssembleAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("-race: sync.Pool drops scratch at random")
	}
	ds, _ := buildDataset(t, 65, "highland")
	s := newTestStore(t, ds)
	qp := geom.QueryPlane{R: geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.9, MaxY: 0.9},
		EMin: eAtPercentile(ds, 0.3), EMax: eAtPercentile(ds, 0.9), Axis: 1}
	f := s.newFetcher()
	if _, err := f.fetchBoxes([]geom.Box{s.cube(qp.R, qp.EMin, qp.EMax)}); err != nil {
		t.Fatal(err)
	}
	recs := f.fetched()
	if len(recs) < 2000 {
		t.Fatalf("only %d records fetched; the test wants >= 2000", len(recs))
	}
	var res *Result
	got := bytesPerRun(5, func() { res = s.assemble(recs, qp.EAt, true) })
	held := resultBytes(res)
	const slack = 512
	if got > held+slack {
		t.Errorf("warm lifted assemble over %d records allocates %.0f bytes, its Result holds %.0f: want at most %d more",
			len(recs), got, held, slack)
	}
}

// TestNewSessionIsOneAllocation: a session holds its four attribution
// counters and every handle bound to them, so making one — once per
// request — is a single allocation, and its queries still charge it
// exactly the pages they read.
func TestNewSessionIsOneAllocation(t *testing.T) {
	ds, _ := buildDataset(t, 17, "highland")
	for _, layout := range []Layout{LayoutPacked, LayoutSTR} {
		s, err := BuildStore(ds, StorePools{Layout: layout})
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(10, func() { s.NewSession() }); n != 1 {
			t.Errorf("%v: NewSession allocates %.0f objects, want 1", layout, n)
		}
		if err := s.DropCaches(); err != nil {
			t.Fatal(err)
		}
		s.ResetStats()
		q := s.NewSession()
		if _, err := q.ViewpointIndependent(fullRect(), eAtPercentile(ds, 0.5)); err != nil {
			t.Fatal(err)
		}
		if da := q.DiskAccesses(); da == 0 || da != s.DiskAccesses() {
			t.Errorf("%v: session charged %d page reads, the store counted %d", layout, da, s.DiskAccesses())
		}
	}
}

// TestDegeneratePlaneIsUniform: at any LOD — zero, in range, the dataset
// maximum, one ulp above it, far above it, +Inf — the ways to ask for a
// uniform cut give the same mesh from the same records: the uniform query,
// a uniform coherent frame, a single-base query on the degenerate plane,
// and, at the LODs that are rungs of the store's ladder, a stitched tile.
func TestDegeneratePlaneIsUniform(t *testing.T) {
	for _, name := range []string{"highland", "crater"} {
		ds, _ := buildDataset(t, 17, name)
		s := newTestStore(t, ds)
		maxE := ds.MaxE()
		es := []float64{0, eAtPercentile(ds, 0.5), eAtPercentile(ds, 0.9),
			maxE, math.Nextafter(maxE, math.Inf(1)), 2 * maxE, math.Inf(1)}
		for i := 0; i < 2*len(es); i++ {
			e, roi := es[i/2], fullRect()
			if i%2 == 1 {
				roi = geom.Rect{MinX: 0.1, MinY: 0.2, MaxX: 0.9, MaxY: 0.8}
			}
			want, err := s.ViewpointIndependent(roi, e)
			if err != nil {
				t.Fatal(err)
			}
			// Over the whole terrain only +Inf, which no interval contains,
			// has an empty cut.
			if len(want.Vertices) == 0 && i%2 == 0 && !math.IsInf(e, 1) {
				t.Fatalf("%s e=%g: empty uniform cut", name, e)
			}
			qp := geom.QueryPlane{R: roi, EMin: e, EMax: e, Axis: 1}
			if got := qp.EAt(0.5, 0.5); got != e {
				t.Fatalf("degenerate plane at %g requires %g", e, got)
			}
			frame, _, err := s.NewCoherentSession(nil).FrameUniform(roi, e)
			if err != nil {
				t.Fatal(err)
			}
			sb, err := s.SingleBase(qp)
			if err != nil {
				t.Fatal(err)
			}
			kinds := map[string]*Result{"FrameUniform": frame, "SingleBase": sb}
			if slices.Contains(s.Rungs(), e) {
				tp, err := s.MaterializeTile(roi, e)
				if err != nil {
					t.Fatal(err)
				}
				if kinds["StitchTiles"], err = StitchTiles(roi, e, []*TilePatch{tp}); err != nil {
					t.Fatal(err)
				}
				kinds["StitchTiles"].FetchedRecords = tp.FetchedRecords
			}
			for kind, got := range kinds {
				if !bytes.Equal(CanonicalMesh(got), CanonicalMesh(want)) {
					t.Errorf("%s e=%g: %s differs from ViewpointIndependent (%d vs %d vertices)",
						name, e, kind, len(got.Vertices), len(want.Vertices))
				}
				if got.FetchedRecords != want.FetchedRecords {
					t.Errorf("%s e=%g: %s fetched %d records, ViewpointIndependent %d",
						name, e, kind, got.FetchedRecords, want.FetchedRecords)
				}
			}
		}
	}
}

// TestRecordIDOutOfRangeIsCorruption rewrites the stored ID of one record
// on a checksum-less store to a value no node has. Store IDs are dense, so
// every query kind and a coherent frame must refuse the record — naming it
// — instead of sorting it into a mesh, and a coherent session must come out
// of the failed frame clean. The check sits in fetchRecord, above both
// record decoders; the test runs on the fixed encoding because there an ID
// can be rewritten in place (a packed record's length depends on it).
func TestRecordIDOutOfRangeIsCorruption(t *testing.T) {
	ds, _ := buildDataset(t, 17, "highland")
	var fbs []*faultfs.Backend // heap, overflow, r*-tree, id index
	s, err := BuildStore(ds, StorePools{Layout: LayoutSTR, WrapBackend: func(b pager.Backend) pager.Backend {
		fb := faultfs.Wrap(b)
		fbs = append(fbs, fb)
		return fb
	}})
	if err != nil {
		t.Fatal(err)
	}
	model, err := s.CostModel()
	if err != nil {
		t.Fatal(err)
	}
	roi := fullRect()
	qp := geom.QueryPlane{R: roi, EMin: 0, EMax: ds.MaxE(), Axis: 1}
	clean, err := s.SingleBase(qp)
	if err != nil {
		t.Fatal(err)
	}
	// The victim is a vertex of the plane's own cut, so that every plan for
	// the plane has to fetch it, live at a rung of the store's ladder, so
	// that a tile at that rung does too. Its record starts with its ID and
	// position; rewriteID finds those bytes in the heap file and rewrites
	// the ID.
	ids := sortedIDs(clean.Vertices)
	rungs := s.Rungs()
	k := slices.IndexFunc(ids[len(ids)/2:], func(id int64) bool {
		n := ds.Node(id)
		return slices.ContainsFunc(rungs, n.Interval().Contains)
	})
	if k < 0 {
		t.Fatal("no vertex of the cut's upper half is live at a rung")
	}
	victim := ds.Node(ids[len(ids)/2+k])
	rung := rungs[slices.IndexFunc(rungs, victim.Interval().Contains)]
	// A frame over the half of the terrain the victim is not in: the frame
	// that follows it over qp is a delta whose fragments fetch the victim.
	away := geom.QueryPlane{R: geom.Rect{MinX: -1, MinY: -1, MaxX: 0.5, MaxY: 2}, EMin: 0, EMax: ds.MaxE(), Axis: 1}
	if victim.Pos.X <= 0.5 {
		away.R.MinX, away.R.MaxX = 0.6, 2
	}
	cs := s.NewCoherentSession(nil)
	rewriteID := func(from, to int64) {
		t.Helper()
		if err := s.DropCaches(); err != nil {
			t.Fatal(err)
		}
		rec := make([]byte, RecordSize)
		n := victim
		n.ID = from
		encodeRecord(&n, ds.links(victim.ID), noOverflow, rec)
		page := make([]byte, pager.PageSize)
		for id := pager.PageID(0); id < fbs[0].NumPages(); id++ {
			if err := fbs[0].ReadPage(id, page); err != nil {
				t.Fatal(err)
			}
			if at := bytes.Index(page, rec[:32]); at >= 0 {
				binary.LittleEndian.PutUint64(page[at:], uint64(to))
				if err := fbs[0].WritePage(id, page); err != nil {
					t.Fatal(err)
				}
				return
			}
		}
		t.Fatalf("record of node %d not found in the heap file", from)
	}

	for _, bad := range []int64{s.NumNodes(), -1, victim.ID | 1<<40} {
		if _, st, err := cs.Frame(away); err != nil || st.Retained+st.Fetched == 0 {
			t.Fatalf("frame away from the victim: %+v, %v", st, err)
		}
		rewriteID(victim.ID, bad)
		queries := map[string]func() error{
			"ViewpointIndependent": func() error { _, err := s.ViewpointIndependent(roi, victim.ELow); return err },
			"SingleBase":           func() error { _, err := s.SingleBase(qp); return err },
			"MultiBase":            func() error { _, err := s.MultiBase(qp, model, 4); return err },
			"MaterializeTile":      func() error { _, err := s.MaterializeTile(roi, rung); return err },
			"coherent Frame":       func() error { _, _, err := cs.Frame(qp); return err },
		}
		for kind, run := range queries {
			err := run()
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("node ID %d", bad)) {
				t.Errorf("ID %d: %s returned %v, want an error naming the corrupt record", bad, kind, err)
			}
		}
		if cs.fetched != nil || cs.cover != nil {
			t.Errorf("ID %d: failed frame left retained state behind", bad)
		}
		rewriteID(bad, victim.ID)
		got, st, err := cs.Frame(qp)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Full {
			t.Errorf("ID %d: frame after the failed one ran as a delta: %+v", bad, st)
		}
		requireSameMesh(t, fmt.Sprintf("frame after ID %d healed", bad), got, clean)
	}
}
