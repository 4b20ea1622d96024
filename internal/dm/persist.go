package dm

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"

	"dmesh/internal/geom"
	"dmesh/internal/rtree"
	"dmesh/internal/storage/btree"
	"dmesh/internal/storage/heapfile"
	"dmesh/internal/storage/pager"
	"dmesh/internal/wire"
)

// File names inside a store directory.
const (
	heapFileName = "points.heap"
	overFileName = "conn.overflow"
	rtFileName   = "segments.rtree"
	idxFileName  = "id.btree"
	rungFileName = "rungs.live"
	metaFileName = "meta.json"
)

// storeMeta is the sidecar metadata a store directory carries. Every key
// is required but checksums, which is written only when true; decodeMeta
// refuses any other key.
type storeMeta struct {
	Version int `json:"version"`
	// MaxE and Space repeat what the R*-tree's root box says (OpenStore
	// checks that they do): the dataset's largest LOD value and the
	// (x, y, e) box of the stored segments.
	MaxE  float64  `json:"max_e"`
	Space geom.Box `json:"space"`
	// Layout is the layout's name (Layout.String). It stays raw so that a
	// sidecar holding anything else is refused as ErrStoreFormat, naming
	// what it holds, rather than as malformed JSON.
	Layout json.RawMessage `json:"layout"`
	// Checksums records whether the page files carry the interleaved
	// CRC-32C layout of pager.Checksummed; reading a checksummed store
	// without the wrapper would misinterpret the page numbering, so the
	// choice is part of the on-disk format.
	Checksums bool `json:"checksums,omitempty"`
	// RungFile names the rung-set file (rungs.go) and Rungs lists the LODs
	// it holds sets for: the store's ladder.
	RungFile string    `json:"rung_file"`
	Rungs    []float64 `json:"rungs"`
}

// metaVersion is the on-disk format, and the only one OpenStore reads:
// packed records without links (packed.go), the layout recorded by name,
// one of packed or str, and a rung-set file.
const metaVersion = 6

// ErrStoreFormat is what OpenStore returns for a directory this build
// cannot read: a sidecar of any version but metaVersion, one naming a
// layout other than packed or str, or one with a key missing, unknown or
// malformed. Rebuild such a store with dmbuild.
var ErrStoreFormat = errors.New("dm: unreadable store format")

// decodeMeta decodes a meta.json sidecar strictly. The version comes
// first, so a sidecar of another version is refused as that version
// whatever else it holds; then the keys of the sidecar and of its space
// must be exactly the ones metaVersion writes (checksums may be absent),
// spelled exactly, and the layout must be packed or str. Every failure
// is ErrStoreFormat.
func decodeMeta(raw []byte) (*storeMeta, Layout, error) {
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		return nil, 0, fmt.Errorf("%w: meta.json: %v", ErrStoreFormat, err)
	}
	var m storeMeta
	if json.Unmarshal(keys["version"], &m.Version) != nil || m.Version != metaVersion {
		version, ok := keys["version"]
		if !ok {
			version = json.RawMessage("missing")
		}
		return nil, 0, fmt.Errorf("%w: meta.json version %s; this build reads version %d only — rebuild the store with dmbuild",
			ErrStoreFormat, version, metaVersion)
	}
	var space map[string]json.RawMessage
	err := exactKeys(keys, []string{"version", "max_e", "space", "layout", "rung_file", "rungs"}, "checksums")
	if err == nil {
		err = json.Unmarshal(keys["space"], &space)
	}
	if err == nil {
		err = exactKeys(space, []string{"MinX", "MinY", "MinE", "MaxX", "MaxY", "MaxE"})
	}
	if err == nil {
		err = json.Unmarshal(raw, &m)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("%w: meta.json version %d: %v — rebuild the store with dmbuild", ErrStoreFormat, m.Version, err)
	}
	var name string
	if json.Unmarshal(m.Layout, &name) == nil {
		if l, err := ParseLayout(name); err == nil {
			return &m, l, nil
		}
	}
	return nil, 0, fmt.Errorf("%w: meta.json version %d names layout %s; this build reads layout \"packed\" or \"str\" only — rebuild the store with dmbuild",
		ErrStoreFormat, m.Version, m.Layout)
}

// exactKeys checks that keys holds every name in required and nothing
// else but the names in optional.
func exactKeys(keys map[string]json.RawMessage, required []string, optional ...string) error {
	for _, k := range required {
		if _, ok := keys[k]; !ok {
			return fmt.Errorf("no %q key", k)
		}
	}
	for k := range keys {
		if !slices.Contains(required, k) && !slices.Contains(optional, k) {
			return fmt.Errorf("unknown key %q", k)
		}
	}
	return nil
}

// BuildStoreAt builds the Direct Mesh store in dir as regular files, so it
// can be reopened later with OpenStore. The directory is created if
// needed; it must not already contain a store.
func BuildStoreAt(ds *Dataset, pools StorePools, dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dm: %w", err)
	}
	if _, err := os.Stat(filepath.Join(dir, metaFileName)); err == nil {
		return nil, fmt.Errorf("dm: %s already contains a store", dir)
	}
	backends, err := openBackends(dir, false)
	if err != nil {
		return nil, err
	}
	return buildStore(ds, pools, backends, func(s *Store) error {
		return s.writeSidecars(dir, pools)
	})
}

// writeSidecars writes a freshly built store's rung-set file and
// meta.json into dir, then flushes its pages.
func (s *Store) writeSidecars(dir string, pools StorePools) error {
	meta := storeMeta{Version: metaVersion, MaxE: s.maxE, Space: s.space,
		Layout:    json.RawMessage(strconv.Quote(s.layout.String())),
		Checksums: pools.Checksums, RungFile: rungFileName, Rungs: s.rungs.rungs}
	b, err := openRungBackend(dir, rungFileName, pools)
	if err != nil {
		return err
	}
	err = writeRungSets(b, s.rungs)
	if cerr := b.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("dm: write %s: %w", rungFileName, err)
	}
	raw, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return fmt.Errorf("dm: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, metaFileName), raw, 0o644); err != nil {
		return fmt.Errorf("dm: %w", err)
	}
	return s.Flush()
}

// OpenStore opens a store previously written by BuildStoreAt. A
// directory in any other format fails with ErrStoreFormat before a page
// file is opened; any later failure closes every file it opened.
func OpenStore(dir string, pools StorePools) (_ *Store, err error) {
	pools.defaults()
	raw, err := os.ReadFile(filepath.Join(dir, metaFileName))
	if err != nil {
		return nil, fmt.Errorf("dm: open store: %w", err)
	}
	meta, layout, err := decodeMeta(raw)
	if err != nil {
		return nil, fmt.Errorf("dm: open store %s: %w", dir, err)
	}
	// The on-disk layout dictates the checksum setting; the caller's pools
	// only size the buffers.
	pools.Checksums = meta.Checksums
	backends, err := openBackends(dir, true)
	if err != nil {
		return nil, err
	}
	if backends, err = pools.wrapAll(backends); err != nil {
		return nil, fmt.Errorf("dm: open store: %w", err)
	}
	defer func() {
		if err != nil {
			closeBackends(backends[:])
		}
	}()
	// With checksums on, sweep the whole store before serving so
	// corruption and torn writes are caught at open, not mid-query. These
	// reads bypass the pagers and are not counted as disk accesses.
	if meta.Checksums {
		names := [4]string{heapFileName, overFileName, rtFileName, idxFileName}
		for i, b := range backends {
			if err := b.(*pager.ChecksumBackend).VerifyAll(); err != nil {
				return nil, fmt.Errorf("dm: open store: %s: %w", names[i], err)
			}
		}
	}
	if err := checkMetaBox(meta, backends[2]); err != nil {
		return nil, fmt.Errorf("dm: open store: %w", err)
	}
	s := &Store{
		heapP:  pools.newPager(backends[0], pools.Data),
		overP:  pools.newPager(backends[1], pools.Overflow),
		rtP:    pools.newPager(backends[2], pools.Index),
		idxP:   pools.newPager(backends[3], pools.IDIndex),
		layout: layout,
		maxE:   meta.MaxE,
		space:  meta.Space,
	}
	if s.rungs, err = openRungSets(dir, meta, pools); err != nil {
		return nil, fmt.Errorf("dm: open store: %s: %w", meta.RungFile, err)
	}
	if layout == LayoutPacked {
		if s.vheap, err = heapfile.OpenVar(s.heapP); err != nil {
			return nil, fmt.Errorf("dm: open heap: %w", err)
		}
	} else if s.heap, err = heapfile.Open(s.heapP); err != nil {
		return nil, fmt.Errorf("dm: open heap: %w", err)
	}
	if s.over, err = heapfile.Open(s.overP); err != nil {
		return nil, fmt.Errorf("dm: open overflow: %w", err)
	}
	if s.rt, err = rtree.Open(s.rtP); err != nil {
		return nil, fmt.Errorf("dm: open r*-tree: %w", err)
	}
	if s.idx, err = btree.Open(s.idxP); err != nil {
		return nil, fmt.Errorf("dm: open id index: %w", err)
	}
	if s.rungs.nodes != s.idx.Len() {
		return nil, fmt.Errorf("dm: open store: %s covers %d nodes, the store holds %d: %w",
			meta.RungFile, s.rungs.nodes, s.idx.Len(), wire.ErrCorrupt)
	}
	return s, nil
}

// checkMetaBox holds meta.json's max_e and space to the box the R*-tree
// on rt says its segments span: a sidecar that disagrees would answer a
// different mesh, since max_e clamps every root's segment and space
// normalizes the cost model. The root is read below the pager (see
// rtree.RootBox), so the check moves no disk-access count.
func checkMetaBox(meta *storeMeta, rt pager.Backend) error {
	box, err := rtree.RootBox(rt)
	if err != nil {
		return fmt.Errorf("%s: %w", rtFileName, err)
	}
	if meta.Space != box || meta.MaxE != box.MaxE {
		return fmt.Errorf("meta.json says max_e %v and space %+v, %s's root spans %+v: %w",
			meta.MaxE, meta.Space, rtFileName, box, wire.ErrCorrupt)
	}
	return nil
}

// openRungBackend opens the rung-set page file under the same wrappers as
// the four pager-backed files.
func openRungBackend(dir, name string, pools StorePools) (pager.Backend, error) {
	raw, err := pager.OpenFile(filepath.Join(dir, name))
	if err != nil {
		return nil, fmt.Errorf("dm: open %s: %w", name, err)
	}
	b, err := pools.wrap(raw) // closes raw on an error
	if err != nil {
		return nil, fmt.Errorf("dm: open %s: %w", name, err)
	}
	return b, nil
}

// openRungSets loads the rung-set file meta names, sweeping its checksums
// first like the other files' when the store has them. The file decides
// which seam edges tiles keep, so a damaged one — or one that disagrees
// with meta.json — fails the open (wire.ErrCorrupt, or pager.ErrChecksum
// from the sweep) rather than serving a quietly different mesh.
func openRungSets(dir string, meta *storeMeta, pools StorePools) (*rungSets, error) {
	if meta.RungFile != filepath.Base(meta.RungFile) {
		return nil, fmt.Errorf("not a file name in the store directory")
	}
	if _, err := os.Stat(filepath.Join(dir, meta.RungFile)); err != nil {
		return nil, err
	}
	b, err := openRungBackend(dir, meta.RungFile, pools)
	if err != nil {
		return nil, err
	}
	defer b.Close()
	if cb, ok := b.(*pager.ChecksumBackend); ok {
		if err := cb.VerifyAll(); err != nil {
			return nil, err
		}
	}
	rs, err := readRungSets(b)
	if err != nil {
		return nil, err
	}
	if !slices.Equal(rs.rungs, meta.Rungs) {
		return nil, fmt.Errorf("holds rungs %v, meta.json lists %v: %w", rs.rungs, meta.Rungs, wire.ErrCorrupt)
	}
	return rs, nil
}

// openBackends opens the four page files of a store directory. With
// mustExist, missing files are an error. On an error the files already
// opened are closed again.
func openBackends(dir string, mustExist bool) ([4]pager.Backend, error) {
	var out [4]pager.Backend
	names := [4]string{heapFileName, overFileName, rtFileName, idxFileName}
	for i, name := range names {
		path := filepath.Join(dir, name)
		var err error
		if mustExist {
			_, err = os.Stat(path)
		}
		if err == nil {
			out[i], err = pager.OpenFile(path)
		}
		if err != nil {
			closeBackends(out[:i])
			return out, fmt.Errorf("dm: open %s: %w", name, err)
		}
	}
	return out, nil
}

// Flush writes all dirty pages through to the backends.
func (s *Store) Flush() error {
	for _, p := range s.pagers() {
		if err := p.FlushAll(); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes and closes the store's files.
func (s *Store) Close() error {
	for _, p := range s.pagers() {
		if err := p.Close(); err != nil {
			return err
		}
	}
	return nil
}
