package dm

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"dmesh/internal/geom"
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
// grid can never reach 6 a node (measured: 0.1-2.4); an unfiltered one
// holds 7-58 a node on these stores. Exactness cannot tell the two apart —
// unfiltered is exact too — so this is what fails when the filter is lost.
const outPairFloor = 6

// TestRungFilterExact is the filter's oracle, for every ladder rung x every
// tile of a 65² and a 129² store: the out-pairs a store built for the rung
// keeps are exactly the unfiltered patch's whose far endpoint the dataset
// says is live at the rung, everything else about the two patches (the
// eviction charge included) is identical, and the kept arrays are exact-size.
func TestRungFilterExact(t *testing.T) {
	for _, size := range []int{65, 129} {
		ds, _ := buildDataset(t, size, "highland")
		filtered := newTestStore(t, ds)
		plain, err := BuildStore(ds, StorePools{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := filtered.Rungs(), testLadder(ds); !slices.Equal(got, want) || plain.Rungs() != nil {
			t.Fatalf("%d²: Rungs() = %v and %v, want %v and none", size, got, plain.Rungs(), want)
		}
		kept, dropped, nodes := 0, 0, 0
		for band, e := range testLadder(ds) {
			for level := 0; level <= 2; level++ {
				gridKept, gridNodes := 0, 0
				for ti, r := range tileCover(filtered, fullRect(), level) {
					label := fmt.Sprintf("%d² band %d level %d tile %d", size, band, level, ti)
					fp, err := filtered.MaterializeTile(r, e)
					if err != nil {
						t.Fatal(err)
					}
					up, err := plain.MaterializeTile(r, e)
					if err != nil {
						t.Fatal(err)
					}
					var want [][2]int64
					for _, pr := range pairsOf(up.outPairs) {
						if n := ds.Node(pr[1]); n.Interval().Contains(e) {
							want = append(want, pr)
						}
					}
					if got := pairsOf(fp.outPairs); !slices.Equal(got, want) {
						t.Fatalf("%s: kept %d out-pairs, the oracle keeps %d of %d", label, len(got), len(want), len(up.outPairs.far))
					}
					k, d := fp.OutPairs()
					if uk, ud := up.OutPairs(); k+d != uk || ud != 0 {
						t.Fatalf("%s: census %d kept + %d dropped, unfiltered %d + %d", label, k, d, uk, ud)
					}
					gridKept, gridNodes = gridKept+k, gridNodes+fp.NumNodes()
					if fp.Bytes() != up.Bytes() || fp.Bytes() != patchCharge(len(fp.ids), connOf(fp), len(fp.edges.far), trianglesOf(fp), k+d) {
						t.Fatalf("%s: charge %d, unfiltered %d: the eviction charge moved", label, fp.Bytes(), up.Bytes())
					}
					fp.outPairs, up.outPairs = pairRuns{}, pairRuns{}
					requireSamePatch(t, label, fp, up)
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
// is exact-size, filtered or not.
func TestMaterializedPatchHoldsNoSlack(t *testing.T) {
	ds, _ := buildDataset(t, 33, "crater")
	s := newTestStore(t, ds)
	for _, e := range []float64{eAtPercentile(ds, 0.9), eAtPercentile(ds, 0.6)} { // a rung, and not
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

// TestStitchMixedFilteredTiles: filtered patches, unfiltered ones and any
// mix of the two (straight from the store or through the wire) stitch to
// the direct answer byte for byte — an unfiltered patch is a superset.
func TestStitchMixedFilteredTiles(t *testing.T) {
	for _, size := range []int{65, 129} {
		ds, _ := buildDataset(t, size, "highland")
		filtered := newTestStore(t, ds)
		plain, err := BuildStore(ds, StorePools{})
		if err != nil {
			t.Fatal(err)
		}
		ladder := testLadder(ds)
		rng := rand.New(rand.NewSource(int64(size)))
		for trial := 0; trial < 24; trial++ {
			x0, y0 := rng.Float64()*0.7, rng.Float64()*0.7
			r := geom.Rect{MinX: x0, MinY: y0, MaxX: x0 + 0.05 + rng.Float64()*0.3, MaxY: y0 + 0.05 + rng.Float64()*0.3}
			e, level := ladder[rng.Intn(len(ladder))], 1+rng.Intn(2)
			want, err := plain.ViewpointIndependent(r, e)
			if err != nil {
				t.Fatal(err)
			}
			fts := materializeWirePatches(t, filtered, r, e, level)
			uts := materializeWirePatches(t, plain, r, e, level)
			mixed := make([]*TilePatch, len(fts))
			for i := range mixed {
				mixed[i] = []*TilePatch{fts[i], uts[i]}[rng.Intn(2)]
				if rng.Intn(2) == 0 {
					if mixed[i], err = DecodeTilePatch(EncodeTilePatch(mixed[i])); err != nil {
						t.Fatal(err)
					}
				}
			}
			for kind, tiles := range map[string][]*TilePatch{"filtered": fts, "unfiltered": uts, "mixed": mixed} {
				got, err := StitchTiles(r, e, tiles)
				if err != nil {
					t.Fatalf("%d² trial %d %s: %v", size, trial, kind, err)
				}
				if !bytes.Equal(CanonicalMesh(got), CanonicalMesh(want)) {
					requireSameMesh(t, kind, got, want)
					t.Fatalf("%d² trial %d: %s tiles stitch to a different mesh than the direct query", size, trial, kind)
				}
			}
		}
	}
}

// TestRungSetsSurviveTheStoreLifecycle: a store built in memory, one built
// into a directory and reopened, and one built in the other layout hold
// identical sets; a directory
// built for no rungs has no rung file and opens unfiltered; and the sets
// cost a session's materialization no disk access.
func TestRungSetsSurviveTheStoreLifecycle(t *testing.T) {
	ds, _ := buildDataset(t, 33, "highland")
	ladder := testLadder(ds)
	pools := StorePools{Data: 8, Overflow: 4, Index: 8, IDIndex: 4}
	withRungs := pools
	withRungs.Rungs = ladder
	tmp := t.TempDir()

	built, err := BuildStore(ds, withRungs)
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
	onDisk, err := BuildStoreAt(ds, withRungs, filepath.Join(tmp, "a"))
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
	strRungs := withRungs
	strRungs.Layout = LayoutSTR
	str, err := BuildStore(ds, strRungs)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Store{"built": built, "reopened": reopened, "str": str} {
		if !reflect.DeepEqual(s.rungs, want) {
			t.Errorf("%s store: rung sets differ from the dataset's", name)
		}
	}

	// No rungs: the directory is what the previous release wrote.
	bare, err := BuildStoreAt(ds, pools, filepath.Join(tmp, "c"))
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(tmp, "c", rungFileName)); !os.IsNotExist(err) {
		t.Fatalf("a store built for no rungs has a rung file (stat: %v)", err)
	}
	if meta, _ := os.ReadFile(filepath.Join(tmp, "c", metaFileName)); bytes.Contains(meta, []byte("rung")) {
		t.Fatalf("a store built for no rungs names them in meta.json: %s", meta)
	}
	unfiltered, err := OpenStore(filepath.Join(tmp, "c"), pools)
	if err != nil {
		t.Fatal(err)
	}
	defer unfiltered.Close()
	if unfiltered.Rungs() != nil {
		t.Fatalf("a directory without a rung file opened with rungs %v", unfiltered.Rungs())
	}

	// Same pages read with and without the sets, tile by tile, cold.
	for _, e := range ladder {
		for _, r := range tileCover(reopened, fullRect(), 1) {
			var da [2]uint64
			var tps [2]*TilePatch
			for i, s := range []*Store{reopened, unfiltered} {
				if err := s.DropCaches(); err != nil {
					t.Fatal(err)
				}
				sess := s.NewSession()
				if tps[i], err = sess.MaterializeTile(r, e); err != nil {
					t.Fatal(err)
				}
				da[i] = sess.DiskAccesses()
			}
			if da[0] != da[1] || da[0] == 0 {
				t.Fatalf("tile %v at %g: %d DA with rung sets, %d without", r, e, da[0], da[1])
			}
			if _, dropped := tps[0].OutPairs(); dropped == 0 {
				t.Fatalf("tile %v at %g: the reopened store's session dropped no out-pair", r, e)
			}
			if _, dropped := tps[1].OutPairs(); dropped != 0 {
				t.Fatalf("tile %v at %g: a store without sets dropped %d out-pairs", r, e, dropped)
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
	ladder := testLadder(ds)
	build := func(t *testing.T, checksums bool) (dir, rungPath string) {
		dir = filepath.Join(t.TempDir(), "store")
		s, err := BuildStoreAt(ds, StorePools{Rungs: ladder, Checksums: checksums}, dir)
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
