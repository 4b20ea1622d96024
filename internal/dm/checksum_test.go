package dm

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dmesh/internal/geom"
	"dmesh/internal/storage/pager"
)

// The checksum layer must not change the paper's metric: the same cold
// queries against the same dataset cost the same disk accesses with and
// without checksums underneath.
func TestChecksummedStoreDAIdentical(t *testing.T) {
	ds, _ := buildDataset(t, 8, "highland")
	plain := newTestStore(t, ds)
	sums, err := BuildStore(ds, StorePools{Checksums: true})
	if err != nil {
		t.Fatal(err)
	}
	rois := []geom.Rect{
		fullRect(),
		{MinX: 0.1, MinY: 0.1, MaxX: 0.6, MaxY: 0.6},
		{MinX: 0.4, MinY: 0.2, MaxX: 0.9, MaxY: 0.5},
	}
	for _, p := range []float64{0.3, 0.6, 0.9} {
		e := eAtPercentile(ds, p)
		for _, roi := range rois {
			for _, s := range []*Store{plain, sums} {
				if err := s.DropCaches(); err != nil {
					t.Fatal(err)
				}
				s.ResetStats()
			}
			mp, err := plain.ViewpointIndependent(roi, e)
			if err != nil {
				t.Fatal(err)
			}
			ms, err := sums.ViewpointIndependent(roi, e)
			if err != nil {
				t.Fatal(err)
			}
			if len(mp.Vertices) != len(ms.Vertices) || len(mp.Edges) != len(ms.Edges) {
				t.Fatalf("roi %+v e %g: meshes differ", roi, e)
			}
			if da, ds2 := plain.DiskAccesses(), sums.DiskAccesses(); da != ds2 {
				t.Fatalf("roi %+v e %g: plain %d DA, checksummed %d DA", roi, e, da, ds2)
			}
		}
	}
}

// A checksummed store round-trips through meta.json: reopen re-applies
// the wrapper, verifies the whole store at open, and detects corruption
// injected into the closed files.
func TestChecksummedStoreReopenAndVerify(t *testing.T) {
	ds, _ := buildDataset(t, 8, "crater")
	dir := filepath.Join(t.TempDir(), "store")
	s, err := BuildStoreAt(ds, StorePools{Checksums: true}, dir)
	if err != nil {
		t.Fatal(err)
	}
	e := eAtPercentile(ds, 0.5)
	roi := geom.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.8, MaxY: 0.8}
	want, err := s.ViewpointIndependent(roi, e)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Clean reopen: VerifyAll passes, queries match. The caller's pools
	// need not repeat Checksums — meta.json carries it.
	s2, err := OpenStore(dir, StorePools{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.ViewpointIndependent(roi, e)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Vertices) != len(want.Vertices) || len(got.Edges) != len(want.Edges) {
		t.Fatal("checksummed store differs after reopen")
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// Rot one byte of the first data page of the heap file (physical page
	// 1; page 0 is its checksum page). The next open must refuse to serve.
	path := filepath.Join(dir, heapFileName)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte{0}
	if _, err := f.ReadAt(buf, pager.PageSize+100); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0x01
	if _, err := f.WriteAt(buf, pager.PageSize+100); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := OpenStore(dir, StorePools{}); !errors.Is(err, pager.ErrChecksum) {
		t.Fatalf("OpenStore on rotted store = %v, want ErrChecksum", err)
	}
}
