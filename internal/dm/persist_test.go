package dm

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmesh/internal/geom"
	"dmesh/internal/storage/pager"
	"dmesh/internal/wire"
)

func TestBuildStoreAtAndReopen(t *testing.T) {
	ds, _ := buildDataset(t, 8, "highland")
	dir := filepath.Join(t.TempDir(), "store")

	s, err := BuildStoreAt(ds, StorePools{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	e := eAtPercentile(ds, 0.5)
	want, err := s.ViewpointIndependent(fullRect(), e)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, StorePools{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.MaxE() != s.MaxE() {
		t.Fatalf("MaxE %g != %g after reopen", s2.MaxE(), s.MaxE())
	}
	got, err := s2.ViewpointIndependent(fullRect(), e)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Vertices) != len(want.Vertices) || len(got.Edges) != len(want.Edges) {
		t.Fatalf("reopened store differs: %d/%d vertices, %d/%d edges",
			len(got.Vertices), len(want.Vertices), len(got.Edges), len(want.Edges))
	}
	for id := range want.Vertices {
		if _, ok := got.Vertices[id]; !ok {
			t.Fatalf("vertex %d missing after reopen", id)
		}
	}
	// By-ID fetch also works on the reopened store.
	n, err := s2.FetchByID(0)
	if err != nil {
		t.Fatal(err)
	}
	if n.ID != 0 {
		t.Fatalf("FetchByID(0) returned node %d", n.ID)
	}
}

func TestBuildStoreAtRefusesOverwrite(t *testing.T) {
	ds, _ := buildDataset(t, 5, "highland")
	dir := filepath.Join(t.TempDir(), "store")
	s, err := BuildStoreAt(ds, StorePools{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := BuildStoreAt(ds, StorePools{}, dir); err == nil {
		t.Fatal("second BuildStoreAt must refuse to overwrite")
	}
}

func TestOpenStoreMissing(t *testing.T) {
	if _, err := OpenStore(filepath.Join(t.TempDir(), "nope"), StorePools{}); err == nil {
		t.Fatal("OpenStore on missing directory must fail")
	}
}

func TestOpenStoreColdQueriesCount(t *testing.T) {
	ds, _ := buildDataset(t, 8, "crater")
	dir := filepath.Join(t.TempDir(), "store")
	s, err := BuildStoreAt(ds, StorePools{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := OpenStore(dir, StorePools{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.ResetStats()
	roi := geom.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.8, MaxY: 0.8}
	if _, err := s2.ViewpointIndependent(roi, eAtPercentile(ds, 0.5)); err != nil {
		t.Fatal(err)
	}
	if s2.DiskAccesses() == 0 {
		t.Fatal("file-backed cold query reported zero disk accesses")
	}
}

// closeCounter is a backend wrapper that counts its Close calls.
type closeCounter struct {
	pager.Backend
	closes int
}

func (c *closeCounter) Close() error {
	c.closes++
	return c.Backend.Close()
}

// countingPools returns pools whose WrapBackend hook hands out
// closeCounters, and the list every one of them is appended to.
func countingPools(pools StorePools) (StorePools, *[]*closeCounter) {
	handed := new([]*closeCounter)
	pools.WrapBackend = func(b pager.Backend) pager.Backend {
		c := &closeCounter{Backend: b}
		*handed = append(*handed, c)
		return c
	}
	return pools, handed
}

// rewriteMeta applies edit to dir's meta.json.
func rewriteMeta(t *testing.T, dir string, edit func(m map[string]any)) {
	t.Helper()
	path := filepath.Join(dir, metaFileName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	edit(m)
	if raw, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFailedOpenOrBuildClosesEveryFile: whatever makes OpenStore or
// BuildStoreAt fail — a page checksum, a damaged rung file, a page file
// with no header, a sidecar of an older format, a sidecar the R*-tree
// contradicts, a build that cannot lay the nodes out — every backend the call handed out is closed exactly
// once by the time the error returns.
func TestFailedOpenOrBuildClosesEveryFile(t *testing.T) {
	ds, _ := buildDataset(t, 17, "highland")
	build := func(t *testing.T, pools StorePools) string {
		t.Helper()
		dir := filepath.Join(t.TempDir(), "store")
		s, err := BuildStoreAt(ds, pools, dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	cases := []struct {
		name   string
		opened int // backends the failing call must have handed out first
		run    func(t *testing.T, pools StorePools) error
	}{
		{"checksummed store, one bit flipped", 4, func(t *testing.T, pools StorePools) error {
			dir := build(t, StorePools{Checksums: true})
			path := filepath.Join(dir, heapFileName)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[pager.PageSize+100] ^= 0x01 // page 0 holds the checksums
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = OpenStore(dir, pools)
			return err
		}},
		{"truncated rungs.live", 5, func(t *testing.T, pools StorePools) error {
			dir := build(t, StorePools{})
			if err := os.Truncate(filepath.Join(dir, rungFileName), 0); err != nil {
				t.Fatal(err)
			}
			_, err := OpenStore(dir, pools)
			return err
		}},
		{"emptied points.heap", 4, func(t *testing.T, pools StorePools) error {
			dir := build(t, StorePools{})
			if err := os.Truncate(filepath.Join(dir, heapFileName), 0); err != nil {
				t.Fatal(err)
			}
			_, err := OpenStore(dir, pools)
			return err
		}},
		{"version-4 sidecar", 0, func(t *testing.T, pools StorePools) error {
			dir := build(t, StorePools{})
			rewriteMeta(t, dir, func(m map[string]any) { m["version"], m["layout"] = 4, 4 })
			_, err := OpenStore(dir, pools)
			return err
		}},
		{"max_e off the r*-tree's root box", 4, func(t *testing.T, pools StorePools) error {
			dir := build(t, StorePools{})
			rewriteMeta(t, dir, func(m map[string]any) { m["max_e"] = m["max_e"].(float64) / 2 })
			_, err := OpenStore(dir, pools)
			return err
		}},
		{"build with an unknown layout", 4, func(t *testing.T, pools StorePools) error {
			pools.Layout = Layout(99)
			_, err := BuildStoreAt(ds, pools, filepath.Join(t.TempDir(), "store"))
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pools, handed := countingPools(StorePools{})
			if err := c.run(t, pools); err == nil {
				t.Fatal("the call succeeded; the case wants it to fail")
			} else {
				t.Log(err)
			}
			if len(*handed) < c.opened {
				t.Fatalf("%d backends handed out, the case wants the failure after %d", len(*handed), c.opened)
			}
			for i, b := range *handed {
				if b.closes != 1 {
					t.Errorf("backend %d of %d closed %d times, want once", i, len(*handed), b.closes)
				}
			}
		})
	}
}

// TestOldStoreVersionsRefused: OpenStore reads meta version 6 naming
// packed or str and nothing else. Every other version — version 5 too,
// whose packed records carried links — an integer layout (what versions
// 1-4 wrote) and the names of the deleted layouts are refused with
// ErrStoreFormat — naming the version and dmbuild — before any page file
// is opened.
func TestOldStoreVersionsRefused(t *testing.T) {
	ds, _ := buildDataset(t, 9, "highland")
	dir := filepath.Join(t.TempDir(), "store")
	s, err := BuildStoreAt(ds, StorePools{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		version int
		layout  any
	}{
		{0, 0}, {1, 0}, {2, 0}, {3, 3}, {4, 4}, {7, "packed"},
		{5, 0}, {5, "connect"}, {5, "hilbert"}, {5, "rowmajor"},
		{5, "packed"}, {5, "str"}, {6, 0}, {6, "connect"},
	}
	for _, c := range cases {
		rewriteMeta(t, dir, func(m map[string]any) { m["version"], m["layout"] = c.version, c.layout })
		pools, handed := countingPools(StorePools{})
		s, err := OpenStore(dir, pools)
		if err == nil {
			s.Close()
		}
		if !errors.Is(err, ErrStoreFormat) {
			t.Errorf("version %d, layout %v: OpenStore = %v, want ErrStoreFormat", c.version, c.layout, err)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("version %d", c.version)) || !strings.Contains(msg, "dmbuild") {
			t.Errorf("version %d, layout %v: %q does not name the version and dmbuild", c.version, c.layout, msg)
		}
		if len(*handed) != 0 {
			t.Errorf("version %d, layout %v: %d page files opened before the refusal", c.version, c.layout, len(*handed))
		}
	}
	rewriteMeta(t, dir, func(m map[string]any) { m["version"], m["layout"] = 6, "packed" })
	if s, err := OpenStore(dir, StorePools{}); err != nil {
		t.Fatalf("the restored sidecar: %v", err)
	} else {
		s.Close()
	}
}

// TestMetaSidecarIsStrict: meta.json is the one file of a store no
// checksum covers, so OpenStore holds it to exactly what BuildStoreAt
// writes. A key renamed, dropped or added is ErrStoreFormat, and a max_e
// or space that disagrees with the R*-tree's root box is wire.ErrCorrupt
// — each before a query could answer a different mesh. Renaming "max_e"
// (which then decoded as 0) and halving its value both used to open a
// checksummed store that answered wrong.
func TestMetaSidecarIsStrict(t *testing.T) {
	ds, _ := buildDataset(t, 9, "highland")
	dir := filepath.Join(t.TempDir(), "store")
	s, err := BuildStoreAt(ds, StorePools{Checksums: true}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, metaFileName))
	if err != nil {
		t.Fatal(err)
	}
	rename := func(m map[string]any, from, to string) { m[to] = m[from]; delete(m, from) }
	space := func(m map[string]any) map[string]any { return m["space"].(map[string]any) }
	cases := []struct {
		name string
		edit func(m map[string]any)
		want error
	}{
		{"max_e renamed", func(m map[string]any) { rename(m, "max_e", "max_f") }, ErrStoreFormat},
		{"max_e halved", func(m map[string]any) { m["max_e"] = m["max_e"].(float64) / 2 }, wire.ErrCorrupt},
		{"max_e respelled in capitals", func(m map[string]any) { rename(m, "max_e", "MAX_E") }, ErrStoreFormat},
		{"rungs dropped", func(m map[string]any) { delete(m, "rungs") }, ErrStoreFormat},
		{"unknown key", func(m map[string]any) { m["links"] = true }, ErrStoreFormat},
		{"space key renamed", func(m map[string]any) { rename(space(m), "MaxX", "MaxZ") }, ErrStoreFormat},
		{"space key dropped", func(m map[string]any) { delete(space(m), "MinE") }, ErrStoreFormat},
		{"space moved", func(m map[string]any) { space(m)["MaxX"] = space(m)["MaxX"].(float64) + 1 }, wire.ErrCorrupt},
		{"space MaxE off max_e", func(m map[string]any) { space(m)["MaxE"] = m["max_e"].(float64) * 2 }, wire.ErrCorrupt},
	}
	for _, c := range cases {
		if err := os.WriteFile(filepath.Join(dir, metaFileName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		rewriteMeta(t, dir, c.edit)
		s, err := OpenStore(dir, StorePools{})
		if err == nil {
			s.Close()
		}
		if !errors.Is(err, c.want) {
			t.Errorf("%s: OpenStore = %v, want %v", c.name, err, c.want)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, metaFileName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rewriteMeta(t, dir, func(map[string]any) {})
	re, err := OpenStore(dir, StorePools{})
	if err != nil {
		t.Fatalf("the sidecar as built, re-marshalled: %v", err)
	}
	re.Close()
}
