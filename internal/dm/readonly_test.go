package dm

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"dmesh/internal/geom"
	"dmesh/internal/storage/pager"
)

// pageHashes hashes every page of each backend, in backend order.
func pageHashes(t *testing.T, backends []*pager.MemBackend) [][sha256.Size]byte {
	t.Helper()
	var out [][sha256.Size]byte
	buf := make([]byte, pager.PageSize)
	for _, b := range backends {
		for id := pager.PageID(0); id < b.NumPages(); id++ {
			if err := b.ReadPage(id, buf); err != nil {
				t.Fatal(err)
			}
			out = append(out, sha256.Sum256(buf))
		}
	}
	return out
}

// A pool over a bare MemBackend uses the backend's pages in place, so a
// read path that wrote into a pinned page would change the store itself,
// not a copy eviction throws away. Every query kind, on an in-memory store
// in each layout, leaves every page's bytes as they were and the pools'
// write counts where they were.
func TestReadPathsWriteNoPage(t *testing.T) {
	ds, _ := buildDataset(t, 33, "highland")
	for _, layout := range allLayouts {
		t.Run(layout.String(), func(t *testing.T) {
			mems := []*pager.MemBackend{
				pager.NewMemBackend(), pager.NewMemBackend(),
				pager.NewMemBackend(), pager.NewMemBackend(),
			}
			s, err := buildStore(ds, StorePools{Layout: layout},
				[4]pager.Backend{mems[0], mems[1], mems[2], mems[3]}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.DropCaches(); err != nil { // the build's dirty pages go out first
				t.Fatal(err)
			}
			writes := func() (n uint64) {
				for _, p := range s.pagers() {
					n += p.Stats().Writes
				}
				return n
			}
			before, written := pageHashes(t, mems), writes()

			model, err := s.CostModel()
			if err != nil {
				t.Fatal(err)
			}
			space := fullRect()
			emin, emax := eAtPercentile(ds, 0.5), eAtPercentile(ds, 0.95)
			qp := geom.QueryPlane{R: space, EMin: emin, EMax: emax, Axis: 1}
			kinds := []struct {
				name string
				run  func() error
			}{
				{"uniform", func() error { _, err := s.ViewpointIndependent(space, emin); return err }},
				{"single-base", func() error { _, err := s.SingleBase(qp); return err }},
				{"multi-base", func() error { _, err := s.MultiBase(qp, model, 8); return err }},
				{"MaterializeTile", func() error {
					for _, e := range s.Rungs() {
						if _, err := s.MaterializeTile(space, e); err != nil {
							return err
						}
					}
					return nil
				}},
				{"coherent frames", func() error {
					cs := s.NewCoherentSession(model)
					walk := newCameraWalk(7, 0.55, 0.45)
					for i := 0; i < 12; i++ {
						if _, _, err := cs.Frame(geom.QueryPlane{R: walk.next(i == 6), EMin: emin, EMax: emax, Axis: 1}); err != nil {
							return err
						}
					}
					return nil
				}},
				{"FetchByID", func() error {
					for id := int64(0); id < s.NumNodes(); id++ {
						if _, err := s.FetchByID(id); err != nil {
							return fmt.Errorf("node %d: %w", id, err)
						}
					}
					return nil
				}},
			}
			for _, k := range kinds {
				if err := s.DropCaches(); err != nil {
					t.Fatal(err)
				}
				if err := k.run(); err != nil {
					t.Fatalf("%s: %v", k.name, err)
				}
				if err := s.DropCaches(); err != nil { // a dirtied page would be written here
					t.Fatal(err)
				}
				if w := writes(); w != written {
					t.Errorf("%s: the pools wrote %d pages", k.name, w-written)
					written = w
				}
				after := pageHashes(t, mems)
				for i := range before {
					if after[i] != before[i] {
						t.Errorf("%s: page %d of the store changed", k.name, i)
						break
					}
				}
				before = after
			}
		})
	}
}
