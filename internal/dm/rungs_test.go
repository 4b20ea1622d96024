package dm

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dmesh/internal/geom"
	"dmesh/internal/pm"
	"dmesh/internal/storage/faultfs"
	"dmesh/internal/storage/pager"
	"dmesh/internal/wire"
)

// pairsOf spells a pair list out as (a, c) pairs.
func pairsOf(p pairRuns) [][2]int64 {
	out := make([][2]int64, 0, len(p.far))
	lo := 0
	for _, run := range p.runs {
		for _, c := range p.far[lo:run.end] {
			out = append(out, [2]int64{run.head, c})
		}
		lo = run.end
	}
	return out
}

// outPairFloor bounds the out-pairs the tiles of one grid keep at one rung,
// per live node. A kept pair is a mesh edge at the rung seen from one of
// its two tiles, and a planar mesh has fewer than 3V edges, so a filtered
// grid can never reach 6 a node (measured: 0.1-2.4); keeping every pair
// whose far end is outside the tile holds 7-58 a node on these stores.
// Exactness cannot tell the two apart — the stitch drops dead pairs
// itself — so this is what fails when the filter is lost.
const outPairFloor = 6

// oraclePatch is what MaterializeTile(r, e) must return, worked out from
// the dataset's nodes alone: the nodes in r live at e, ascending, their
// connection pairs inside the tile as edges and, as out-pairs, the pairs
// whose far end is outside the tile and live at e. outside counts the
// pairs whose far end is outside the tile, live or not: the census the
// charge is taken over.
func oraclePatch(nodes []Node, r geom.Rect, e float64) (tp *TilePatch, outside int) {
	tp = &TilePatch{Rect: r, E: e}
	in := make(map[int64]bool)
	for i := range nodes {
		if n := &nodes[i]; r.ContainsPoint(n.Pos.XY()) && n.Interval().Contains(e) {
			tp.ids, tp.pos = append(tp.ids, n.ID), append(tp.pos, n.Pos)
			in[n.ID] = true
		}
	}
	for _, a := range tp.ids {
		for _, c := range nodes[a].Conn {
			switch {
			case in[c]:
				if c > a {
					tp.edges.add(a, c)
				}
			case nodes[c].Interval().Contains(e):
				outside++
				tp.outPairs.add(a, c)
			default:
				outside++
			}
		}
	}
	return tp, outside
}

// TestRungFilterExact is the filter's oracle, for every ladder rung x every
// tile of a 65² and a 129² store: the patch is exactly the one oraclePatch
// works out from the dataset, its census and eviction charge are taken over
// every out-pair, dropped ones included, and the store's ladder is the
// dataset's.
func TestRungFilterExact(t *testing.T) {
	for _, size := range []int{65, 129} {
		ds, _ := buildDataset(t, size, "highland")
		s, recs := newTestStore(t, ds), datasetNodes(ds)
		if got, want := s.Rungs(), LODLadder(ds); !slices.Equal(got, want) {
			t.Fatalf("%d²: Rungs() = %v, want %v", size, got, want)
		}
		kept, dropped, nodes := 0, 0, 0
		for band, e := range s.Rungs() {
			for level := 0; level <= 2; level++ {
				gridKept, gridNodes := 0, 0
				for ti, r := range tileCover(s, fullRect(), level) {
					label := fmt.Sprintf("%d² band %d level %d tile %d", size, band, level, ti)
					fp, err := s.MaterializeTile(r, e)
					if err != nil {
						t.Fatal(err)
					}
					want, outside := oraclePatch(recs, r, e)
					want.FetchedRecords = fp.FetchedRecords
					requireSamePatch(t, label, fp, want)
					k, d := fp.OutPairs()
					if k+d != outside {
						t.Fatalf("%s: census %d kept + %d dropped, the tile has %d pairs leaving it", label, k, d, outside)
					}
					if fp.Bytes() != patchCharge(len(fp.ids), connOf(fp), len(fp.edges.far), trianglesOf(fp), outside) {
						t.Fatalf("%s: charge %d: the eviction charge moved", label, fp.Bytes())
					}
					gridKept, gridNodes = gridKept+k, gridNodes+fp.NumNodes()
					kept, dropped, nodes = kept+k, dropped+d, nodes+fp.NumNodes()
				}
				if gridKept >= outPairFloor*gridNodes {
					t.Errorf("%d² band %d level %d: %d out-pairs kept for %d nodes: the filter is not filtering", size, band, level, gridKept, gridNodes)
				}
			}
		}
		t.Logf("%d²: %d nodes over all tiles, %d out-pairs kept (%.2f a node), %d dropped (%.1f%%)",
			size, nodes, kept, float64(kept)/float64(nodes), dropped, 100*float64(dropped)/float64(kept+dropped))
	}
}

// TestLODLadder: a store's ladder is its dataset's internal LOD values at
// the eight percentiles, deduplicated and ascending; {0} without an
// internal node.
func TestLODLadder(t *testing.T) {
	for _, size := range []int{9, 65} {
		ds, _ := buildDataset(t, size, "crater")
		var want []float64
		for _, p := range []float64{0.50, 0.70, 0.80, 0.90, 0.95, 0.97, 0.99, 0.995} {
			if e := eAtPercentile(ds, p); !slices.Contains(want, e) {
				want = append(want, e)
			}
		}
		if got := LODLadder(ds); !slices.Equal(got, want) || !slices.IsSorted(got) {
			t.Fatalf("%d²: LODLadder = %v, want %v", size, got, want)
		}
	}
	if got := LODLadder(&Dataset{Tree: &pm.Tree{}}); !slices.Equal(got, []float64{0}) {
		t.Fatalf("no internal node: LODLadder = %v, want [0]", got)
	}
}

// TestMaterializeTileOffLadder: a LOD that is not a rung of the store's
// ladder — between two rungs, above the coarsest, NaN — is an error before
// any page is read.
func TestMaterializeTileOffLadder(t *testing.T) {
	ds, _ := buildDataset(t, 33, "highland")
	s := newTestStore(t, ds)
	rungs := s.Rungs()
	for _, e := range []float64{(rungs[0] + rungs[1]) / 2, eAtPercentile(ds, 0.6), -1, s.MaxE() * 2, math.Inf(1), math.NaN()} {
		if err := s.DropCaches(); err != nil {
			t.Fatal(err)
		}
		sess := s.NewSession()
		if tp, err := sess.MaterializeTile(fullRect(), e); err == nil {
			t.Fatalf("LOD %g, not a rung of %v: materialized %d nodes", e, rungs, tp.NumNodes())
		}
		if da := sess.DiskAccesses(); da != 0 {
			t.Fatalf("LOD %g: the refusal cost %d disk accesses", e, da)
		}
	}
}

func connOf(tp *TilePatch) (n int) {
	for i := range tp.Nodes {
		n += len(tp.Nodes[i].Conn)
	}
	return n
}

// trianglesOf counts the 3-cliques of a patch's intra-tile edges: the
// triangles a patch held and DMTP v2 shipped, which Bytes still charges.
func trianglesOf(tp *TilePatch) int {
	sc := new(scratch)
	idx := sc.indexIDs(tp.ids)
	var packed []uint64
	for _, pr := range pairsOf(tp.edges) {
		packed = append(packed, packEdge(idx.lookup(pr[0]), idx.lookup(pr[1])))
	}
	return len(sc.cliques(nil, packed, tp.ids))
}

// TestMaterializedPatchHoldsNoSlack: a patch the cache may keep for hours
// is exact-size.
func TestMaterializedPatchHoldsNoSlack(t *testing.T) {
	ds, _ := buildDataset(t, 33, "crater")
	s := newTestStore(t, ds)
	for _, e := range []float64{eAtPercentile(ds, 0.9), eAtPercentile(ds, 0.5)} {
		for _, r := range tileCover(s, fullRect(), 1) {
			tp, err := s.MaterializeTile(r, e)
			if err != nil {
				t.Fatal(err)
			}
			for name, slack := range map[string]int{
				"ids": cap(tp.ids) - len(tp.ids), "pos": cap(tp.pos) - len(tp.pos),
				"edges.far": cap(tp.edges.far) - len(tp.edges.far), "edges.runs": cap(tp.edges.runs) - len(tp.edges.runs),
				"outPairs.far":  cap(tp.outPairs.far) - len(tp.outPairs.far),
				"outPairs.runs": cap(tp.outPairs.runs) - len(tp.outPairs.runs),
			} {
				if slack != 0 {
					t.Errorf("tile %v at %g: %s holds %d elements of slack", r, e, name, slack)
				}
			}
		}
	}
}

// TestRungSetsSurviveTheStoreLifecycle: a store built in memory, one built
// into a directory and reopened, and one built in the other layout hold
// identical sets; a directory without a rung file is ErrStoreFormat; and
// the sets cost a session's materialization no disk access.
func TestRungSetsSurviveTheStoreLifecycle(t *testing.T) {
	ds, _ := buildDataset(t, 33, "highland")
	ladder := LODLadder(ds)
	pools := StorePools{Data: 8, Overflow: 4, Index: 8, IDIndex: 4}
	tmp := t.TempDir()

	built, err := BuildStore(ds, pools)
	if err != nil {
		t.Fatal(err)
	}
	want, err := newRungSets(datasetNodes(ds), ladder)
	if err != nil {
		t.Fatal(err)
	}
	if words := (built.NumNodes() + 63) / 64; want.nodes != built.NumNodes() || len(want.live) != len(ladder) || int64(len(want.live[0])) != words {
		t.Fatalf("sets: %d rungs x %d words over %d nodes; want %d x %d over %d: one bit per node per rung",
			len(want.live), len(want.live[0]), want.nodes, len(ladder), words, built.NumNodes())
	}
	onDisk, err := BuildStoreAt(ds, pools, filepath.Join(tmp, "a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := onDisk.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenStore(filepath.Join(tmp, "a"), pools)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	strPools := pools
	strPools.Layout = LayoutSTR
	str, err := BuildStore(ds, strPools)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Store{"built": built, "reopened": reopened, "str": str} {
		if !reflect.DeepEqual(s.rungs, want) {
			t.Errorf("%s store: rung sets differ from the dataset's", name)
		}
	}

	// No rung file: refused before a page file opens, like any format this
	// build does not write.
	bare, err := BuildStoreAt(ds, pools, filepath.Join(tmp, "c"))
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(tmp, "c", rungFileName)); err != nil {
		t.Fatal(err)
	}
	rewriteMeta(t, filepath.Join(tmp, "c"), func(m map[string]any) { delete(m, "rung_file"); delete(m, "rungs") })
	counting, handed := countingPools(pools)
	if s, err := OpenStore(filepath.Join(tmp, "c"), counting); !errors.Is(err, ErrStoreFormat) || !strings.Contains(err.Error(), "dmbuild") {
		if err == nil {
			s.Close()
		}
		t.Fatalf("a directory without a rung file: OpenStore = %v, want ErrStoreFormat naming dmbuild", err)
	}
	if len(*handed) != 0 {
		t.Fatalf("%d page files opened before the refusal", len(*handed))
	}

	// A tile reads the pages of the direct query over its footprint, cold.
	for _, e := range ladder {
		for _, r := range tileCover(reopened, fullRect(), 1) {
			var da [2]uint64
			var tp *TilePatch
			for i := range da {
				if err := reopened.DropCaches(); err != nil {
					t.Fatal(err)
				}
				sess := reopened.NewSession()
				if i == 0 {
					tp, err = sess.MaterializeTile(r, e)
				} else {
					_, err = sess.ViewpointIndependent(r, e)
				}
				if err != nil {
					t.Fatal(err)
				}
				da[i] = sess.DiskAccesses()
			}
			if da[0] != da[1] || da[0] == 0 {
				t.Fatalf("tile %v at %g: %d DA, the direct query %d", r, e, da[0], da[1])
			}
			if _, dropped := tp.OutPairs(); dropped == 0 {
				t.Fatalf("tile %v at %g: the reopened store's session dropped no out-pair", r, e)
			}
		}
	}
}

func datasetNodes(ds *Dataset) []Node {
	nodes := make([]Node, len(ds.Tree.Nodes))
	for i := range nodes {
		nodes[i] = ds.Node(int64(i))
	}
	return nodes
}

// TestRungSetsDecodeRejectsDamage: the encoding round-trips, and no
// truncation, no single flipped bit and no dirty padding decodes.
func TestRungSetsDecodeRejectsDamage(t *testing.T) {
	ds, _ := buildDataset(t, 9, "highland")
	rs, err := newRungSets(datasetNodes(ds), []float64{0.5, 0, 0.25, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rs.rungs, []float64{0, 0.25, 0.5}) {
		t.Fatalf("rungs %v, want them sorted and deduplicated", rs.rungs)
	}
	enc := rs.encode()
	padded := append(slices.Clone(enc), make([]byte, pager.PageSize-len(enc))...)
	for name, b := range map[string][]byte{"bare": enc, "padded to a page": padded} {
		got, err := decodeRungSets(b)
		if err != nil || !reflect.DeepEqual(got, rs) {
			t.Fatalf("%s encoding does not round-trip: %v", name, err)
		}
	}
	requireCorrupt := func(label string, b []byte) {
		t.Helper()
		if _, err := decodeRungSets(b); !errors.Is(err, wire.ErrCorrupt) {
			t.Fatalf("%s: decode = %v, want wire.ErrCorrupt", label, err)
		}
	}
	for n := 0; n < len(enc); n++ {
		requireCorrupt(fmt.Sprintf("cut to %d of %d bytes", n, len(enc)), enc[:n])
	}
	for bit := 0; bit < 8*len(enc); bit++ {
		b := slices.Clone(padded)
		b[bit/8] ^= 1 << (bit % 8)
		requireCorrupt(fmt.Sprintf("bit %d flipped", bit), b)
	}
	dirty := slices.Clone(padded)
	dirty[len(dirty)-1] = 1
	requireCorrupt("nonzero padding", dirty)
	requireCorrupt("a page of trailing zeros", append(slices.Clone(padded), make([]byte, pager.PageSize)...))
	if _, err := newRungSets(nil, []float64{0}); err != nil {
		t.Fatalf("sets over an empty store: %v", err)
	}
}

// TestDamagedRungFileFailsOpen: the rung file decides which seam edges a
// tile keeps, so OpenStore refuses a directory whose file is truncated,
// bit-flipped (on disk, or by faultfs under the store), for another node
// count or at odds with meta.json — wire.ErrCorrupt, or pager.ErrChecksum
// from the open-time sweep when the store has page checksums — and passes
// an injected read failure up, rather than serve a quietly different mesh.
func TestDamagedRungFileFailsOpen(t *testing.T) {
	ds, _ := buildDataset(t, 65, "highland")
	ladder := LODLadder(ds)
	build := func(t *testing.T, checksums bool) (dir, rungPath string) {
		dir = filepath.Join(t.TempDir(), "store")
		s, err := BuildStoreAt(ds, StorePools{Checksums: checksums}, dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if s2, err := OpenStore(dir, StorePools{}); err != nil || !slices.Equal(s2.Rungs(), ladder) {
			t.Fatalf("clean reopen: %v", err)
		} else {
			s2.Close()
		}
		return dir, filepath.Join(dir, rungFileName)
	}
	requireOpenFails := func(t *testing.T, dir string, pools StorePools, sentinel error) {
		t.Helper()
		s, err := OpenStore(dir, pools)
		if err == nil {
			s.Close()
			t.Fatal("OpenStore served a store with a damaged rung file")
		}
		if sentinel != nil && !errors.Is(err, sentinel) {
			t.Fatalf("OpenStore = %v, want an error wrapping %v", err, sentinel)
		}
	}
	flipByte := func(t *testing.T, path string, off int64) {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[off] ^= 0x10
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// faultOnRungFile wraps the fifth backend OpenStore opens.
	faultOnRungFile := func(arm func(*faultfs.Backend)) StorePools {
		n := 0
		return StorePools{WrapBackend: func(b pager.Backend) pager.Backend {
			fb := faultfs.Wrap(b)
			if n++; n == 5 {
				arm(fb)
			}
			return fb
		}}
	}
	everyRead := faultfs.Schedule{Every: 1}

	t.Run("bit flip on disk", func(t *testing.T) {
		dir, path := build(t, false)
		flipByte(t, path, pager.PageSize+100)
		requireOpenFails(t, dir, StorePools{}, wire.ErrCorrupt)
	})
	t.Run("bit flip on disk, checksummed", func(t *testing.T) {
		dir, path := build(t, true)
		flipByte(t, path, 2*pager.PageSize+100) // page 0 holds the checksums
		requireOpenFails(t, dir, StorePools{}, pager.ErrChecksum)
	})
	t.Run("truncated", func(t *testing.T) {
		dir, path := build(t, false)
		st, err := os.Stat(path)
		if err != nil || st.Size() < 2*pager.PageSize {
			t.Fatalf("rung file of %d bytes: %v; the test needs two pages", st.Size(), err)
		}
		if err := os.Truncate(path, st.Size()-pager.PageSize); err != nil {
			t.Fatal(err)
		}
		requireOpenFails(t, dir, StorePools{}, wire.ErrCorrupt)
		if err := os.Truncate(path, 0); err != nil {
			t.Fatal(err)
		}
		requireOpenFails(t, dir, StorePools{}, wire.ErrCorrupt)
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		requireOpenFails(t, dir, StorePools{}, os.ErrNotExist)
	})
	t.Run("faultfs bit flip", func(t *testing.T) {
		dir, _ := build(t, false)
		requireOpenFails(t, dir, faultOnRungFile(func(fb *faultfs.Backend) { fb.SetCorrupt(everyRead) }), wire.ErrCorrupt)
	})
	t.Run("faultfs bit flip, checksummed", func(t *testing.T) {
		dir, _ := build(t, true)
		requireOpenFails(t, dir, faultOnRungFile(func(fb *faultfs.Backend) { fb.SetCorrupt(everyRead) }), pager.ErrChecksum)
	})
	t.Run("faultfs short read", func(t *testing.T) {
		for _, checksums := range []bool{false, true} {
			dir, _ := build(t, checksums)
			pools := faultOnRungFile(func(fb *faultfs.Backend) { fb.SetSchedule(faultfs.Read, faultfs.Schedule{Nth: []uint64{2}}) })
			requireOpenFails(t, dir, pools, faultfs.ErrInjected)
		}
	})
	t.Run("wrong node count", func(t *testing.T) {
		dir, path := build(t, false)
		other, err := newRungSets(datasetNodes(ds)[:len(ds.Tree.Nodes)-70], ladder)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		b, err := pager.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeRungSets(b, other); err != nil {
			t.Fatal(err)
		}
		b.Close()
		requireOpenFails(t, dir, StorePools{}, wire.ErrCorrupt)
	})
	t.Run("meta.json disagrees", func(t *testing.T) {
		dir, _ := build(t, false)
		metaPath := filepath.Join(dir, metaFileName)
		raw, err := os.ReadFile(metaPath)
		if err != nil {
			t.Fatal(err)
		}
		rewrite := func(edit func(m map[string]any)) {
			var m map[string]any
			if err := json.Unmarshal(raw, &m); err != nil {
				t.Fatal(err)
			}
			edit(m)
			out, _ := json.Marshal(m)
			if err := os.WriteFile(metaPath, out, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		rewrite(func(m map[string]any) { m["rungs"] = m["rungs"].([]any)[1:] })
		requireOpenFails(t, dir, StorePools{}, wire.ErrCorrupt)
		rewrite(func(m map[string]any) { m["rung_file"] = "../store/" + rungFileName })
		requireOpenFails(t, dir, StorePools{}, nil)
	})
}
