package dm

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dmesh/internal/geom"
	"dmesh/internal/storage/faultfs"
	"dmesh/internal/storage/heapfile"
	"dmesh/internal/storage/pager"
)

// allRIDs returns the record ID of every node, ascending by node ID.
func allRIDs(t *testing.T, s *Store) []heapfile.RID {
	t.Helper()
	var rids []heapfile.RID
	if err := s.idx.Range(math.MinInt64, math.MaxInt64, func(_, rid int64) bool {
		rids = append(rids, heapfile.RID(rid))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return rids
}

// coldFetch reads rids from dropped caches and returns the decoded nodes
// and the disk accesses paid: under one cursor for the whole list (it
// keeps its page across records), or with the pin given back after every
// record — what a read path without a cursor does.
func coldFetch(t *testing.T, s *Store, rids []heapfile.RID, perRecord bool) ([]Node, uint64) {
	t.Helper()
	if err := s.DropCaches(); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	nodes := make([]Node, 0, len(rids))
	rd := s.newRecReader()
	defer rd.release()
	for _, rid := range rids {
		n, err := s.fetchRecord(rid, &rd, nil)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		if perRecord {
			rd.release()
		}
	}
	return nodes, s.DiskAccesses()
}

// TestCursorFetchMatchesPerRecordReads is the cursor as a storage
// primitive: for both layouts — long lists spilling into overflow
// records included; str's fixed records, read without a cursor, are the
// control — a sorted and a shuffled RID list fetched under one reader
// decode to exactly the nodes per-record reads
// give, and never cost more disk accesses: the same count with a pool
// that holds the heap, no more with the smallest pool there is, where the
// cursor's single pin still leaves the pager room to work.
func TestCursorFetchMatchesPerRecordReads(t *testing.T) {
	ds := inflateConn(buildDatasetOnly(t, 17, "highland"), overflowLengths...)
	for _, layout := range allLayouts {
		for _, pool := range []struct {
			name  string
			pages int
			ample bool
		}{{"ample pool", 0, true}, {"minimal pool", 2, false}} {
			s, err := BuildStore(ds, StorePools{Layout: layout, Data: pool.pages})
			if err != nil {
				t.Fatal(err)
			}
			sorted := allRIDs(t, s)
			slices.Sort(sorted)
			shuffled := slices.Clone(sorted)
			rand.New(rand.NewSource(5)).Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			for name, rids := range map[string][]heapfile.RID{"sorted": sorted, "shuffled": shuffled} {
				want, perRecordDA := coldFetch(t, s, rids, true)
				got, cursorDA := coldFetch(t, s, rids, false)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v, %s, %s RIDs: the cursor decoded different nodes", layout, pool.name, name)
				}
				if cursorDA > perRecordDA || (pool.ample && cursorDA != perRecordDA) || cursorDA == 0 {
					t.Errorf("%v, %s, %s RIDs: %d DA under the cursor, %d per record", layout, pool.name, name, cursorDA, perRecordDA)
				}
			}
			if st := s.heapP.Stats(); st.UnpinErrors != 0 {
				t.Errorf("%v, %s: %d unpin errors", layout, pool.name, st.UnpinErrors)
			}
		}
	}
}

// TestCursorLeavesNoPinBehind: whatever ends a packed store's run of
// fetches early — an injected read error or a corrupt slot directory,
// both striking pages into the run — the caller gets the error and the
// store is immediately droppable again: no path out of a range query, a
// tile, a coherent frame or a by-ID fetch leaks the cursor's pin.
func TestCursorLeavesNoPinBehind(t *testing.T) {
	ds := inflateConn(buildDatasetOnly(t, 17, "highland"), overflowLengths...)
	layout := LayoutPacked
	var heap *faultfs.Backend
	s, err := BuildStore(ds, StorePools{Layout: layout, WrapBackend: func(b pager.Backend) pager.Backend {
		fb := faultfs.Wrap(b)
		if heap == nil { // backends are wrapped heap first
			heap = fb
		}
		return fb
	}})
	if err != nil {
		t.Fatal(err)
	}
	if s.DataPages() < 4 {
		t.Fatalf("%v: %d data pages, the test wants a fault pages into a run", layout, s.DataPages())
	}
	e := eAtPercentile(ds, 0.3)
	runs := map[string]func() error{
		"range query": func() error { _, err := s.ViewpointIndependent(fullRect(), e); return err },
		"tile":        func() error { _, err := s.MaterializeTile(fullRect(), s.Rungs()[0]); return err },
		"coherent frame": func() error {
			_, _, err := s.NewCoherentSession(nil).Frame(geom.QueryPlane{R: fullRect(), EMin: e, EMax: ds.MaxE(), Axis: 1})
			return err
		},
		"by-ID fetches": func() error {
			for id := int64(0); id < s.NumNodes(); id++ {
				if _, err := s.FetchByID(id); err != nil {
					return err
				}
			}
			return nil
		},
	}
	check := func(fault string, isFault func(error) bool) {
		t.Helper()
		for name, run := range runs {
			if err := s.DropCaches(); err != nil {
				t.Fatalf("%v, %s before %s: %v", layout, fault, name, err)
			}
			heap.ResetStats()
			err := run()
			if err == nil || !isFault(err) {
				t.Errorf("%v, %s: %s returned %v, want the fault", layout, fault, name, err)
			}
			if err := s.DropCaches(); err != nil {
				t.Errorf("%v, %s: after the failed %s: %v", layout, fault, name, err)
			}
		}
	}

	heap.SetSchedule(faultfs.Read, faultfs.Schedule{Nth: []uint64{3}})
	check("read error", func(err error) bool { return errors.Is(err, faultfs.ErrInjected) })
	heap.Heal()

	// Smash the slot count of every page after the second: every run
	// reaches one of them with pages already behind it.
	if err := s.DropCaches(); err != nil {
		t.Fatal(err)
	}
	page := make([]byte, pager.PageSize)
	for id := pager.PageID(3); id <= pager.PageID(s.DataPages()); id++ {
		if err := heap.ReadPage(id, page); err != nil {
			t.Fatal(err)
		}
		page[0], page[1] = 0xff, 0xff
		if err := heap.WritePage(id, page); err != nil {
			t.Fatal(err)
		}
	}
	check("corrupt slot", func(err error) bool { return !errors.Is(err, faultfs.ErrInjected) })
	if st := s.heapP.Stats(); st.UnpinErrors != 0 {
		t.Errorf("%v: %d unpin errors", layout, st.UnpinErrors)
	}
}

// TestWarmFetchAllocatesPerPage: a warm fetch of >= 1000 records through
// the query path's reader allocates only the arena chunks the connection
// lists land in: nothing per record it decodes, nothing per page it pins.
func TestWarmFetchAllocatesPerPage(t *testing.T) {
	ds, _ := buildDataset(t, 33, "highland")
	s := newTestStore(t, ds)
	rids := allRIDs(t, s)
	slices.Sort(rids)
	if len(rids) < 1000 {
		t.Fatalf("%d records, the test wants >= 1000", len(rids))
	}
	conn := 0
	for _, c := range ds.Conn {
		conn += len(c)
	}
	fetch := func() {
		rd := s.newRecReader()
		defer rd.release()
		for _, rid := range rids {
			if _, err := s.fetchRecord(rid, &rd, nil); err != nil {
				panic(err)
			}
		}
	}
	fetch() // warm the pool
	allocs := testing.AllocsPerRun(5, fetch)
	if bound := float64(int64(conn/(connArenaChunk/2)) + 8); allocs > bound {
		t.Fatalf("%d records on %d pages allocated %.0f objects, want <= %.0f (arena chunks)",
			len(rids), s.DataPages(), allocs, bound)
	}
}
