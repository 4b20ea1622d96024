package dm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"dmesh/internal/geom"
	"dmesh/internal/wire"
)

// FuzzTilePatchDecode feeds arbitrary bytes to the tile-patch wire
// decoder — the exact bytes a cluster router reads off a possibly
// truncating or corrupting shard connection. It must never panic, every
// rejection must wrap wire.ErrCorrupt so the router's failover classifies it
// as a failed attempt, and the decode is canonical: whatever decodes
// re-encodes to the identical bytes, so byte equality is value equality.
// Every input is also decoded into a patch an earlier, larger real body has
// dirtied, as the router recycles them: the outcome must be the fresh
// decode's — the same error or none, and then the same patch.
//
// The seed corpus is a real encoded patch cut at every byte offset, so
// the fuzzer starts at every field boundary of the format (header,
// counts, node records, pair runs) rather than having to discover the
// framing from scratch — plus trailing garbage, non-minimal and
// out-of-order spellings, and genuine v1 and v2 bodies.
func FuzzTilePatchDecode(f *testing.F) {
	ds, _ := buildDataset(f, 17, "highland")
	s := newTestStore(f, ds)
	// Seven nodes with edges and out-pairs: every section non-empty.
	tp, err := s.MaterializeTile(tileCover(s, fullRect(), 2)[11], eAtPercentile(ds, 0.5))
	if err != nil {
		f.Fatal(err)
	}
	enc := EncodeTilePatch(tp)
	for i := 0; i <= len(enc); i++ {
		f.Add(enc[:i:i])
	}
	f.Add(append(append([]byte{}, enc...), 0x00))
	for _, b := range nonCanonicalPatches() {
		f.Add(b)
	}
	f.Add(v1PatchBody())
	f.Add(v2PatchBody(f))
	big, err := s.MaterializeTile(fullRect(), eAtPercentile(ds, 0.5))
	if err != nil {
		f.Fatal(err)
	}
	bigBody := EncodeTilePatch(big)
	reused := new(TilePatch)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeTilePatch(data)
		if err := DecodeTilePatchInto(bigBody, reused); err != nil {
			t.Fatal(err)
		}
		requireSameDecode(t, reused, DecodeTilePatchInto(data, reused), got, err)
		if err != nil {
			if !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("error %v does not wrap wire.ErrCorrupt", err)
			}
			return
		}
		if re := EncodeTilePatch(got); !bytes.Equal(re, data) {
			t.Fatalf("decoded input re-encodes to different bytes:\n in  %x\n out %x", data, re)
		}
	})
}

// requireSameDecode fails unless decoding into the recycled patch reused
// (with error err) came out as the fresh decode want (with error wantErr):
// the same error or none, and then a patch that reads the same through
// every accessor and re-encodes to the same bytes (header included).
func requireSameDecode(t *testing.T, reused *TilePatch, err error, want *TilePatch, wantErr error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("decode into a recycled patch: error %v, fresh decode: %v", err, wantErr)
	}
	if err != nil {
		return
	}
	gk, gd := reused.OutPairs()
	wk, wd := want.OutPairs()
	switch {
	case reused.Nodes != nil:
		t.Fatalf("recycled patch kept %d records", len(reused.Nodes))
	case reused.NumNodes() != want.NumNodes() || gk != wk || gd != wd || reused.Bytes() != want.Bytes():
		t.Fatalf("recycled patch: %d nodes, out-pairs %d/%d, %d bytes; fresh: %d, %d/%d, %d",
			reused.NumNodes(), gk, gd, reused.Bytes(), want.NumNodes(), wk, wd, want.Bytes())
	}
	if got, fresh := EncodeTilePatch(reused), EncodeTilePatch(want); !bytes.Equal(got, fresh) {
		t.Fatalf("recycled patch re-encodes to different bytes:\n got   %x\n fresh %x", got, fresh)
	}
}

// patchBody assembles a DMTP body from a header and raw section bytes.
func patchBody(sections ...[]byte) []byte {
	b := append([]byte(tileWireMagic), tileWireVersion)
	b = append(b, make([]byte, 5*8)...) // Rect, E: zero
	b = append(b, 0)                    // FetchedRecords
	for _, sec := range sections {
		b = append(b, sec...)
	}
	return b
}

// nonCanonicalPatches are bodies that spell a decodable value in a way
// the encoder never would; each must be rejected, or byte equality would
// stop being value equality. The first entry is the well-formed baseline
// they are all one edit away from.
func nonCanonicalPatches() [][]byte {
	pos := make([]byte, 3*8)
	node := func(delta ...byte) []byte { return append(delta, pos...) }
	nodes := append(append([]byte{2}, node(1)...), node(3)...) // IDs 0, 3
	none := []byte{0}
	edges := []byte{1, 1, 1, 6} // one run: a=0, one pair, b = a+3
	return [][]byte{
		patchBody(nodes, edges, none), // baseline: valid
		// non-minimal uvarint: node count 2 spelled in two bytes
		patchBody(append([]byte{0x82, 0x00}, nodes[1:]...), edges, none),
		// zero ID delta: the second node repeats the first
		patchBody(append(append([]byte{2}, node(1)...), node(0)...), edges, none),
		// ID delta overflowing int64: 1 + MaxInt64
		patchBody(append(append([]byte{2}, node(2)...),
			node(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)...), none, none),
		// a run of length zero
		patchBody(nodes, []byte{1, 1, 0, 6}, none),
		// a run longer than the pairs left
		patchBody(nodes, []byte{1, 1, 2, 6, 1}, none),
		// duplicate pair: second b repeats the first (delta 0)
		patchBody(nodes, []byte{2, 1, 2, 6, 0}, none),
		// two runs with the same a (delta 0): the encoder would merge them
		patchBody(nodes, []byte{2, 1, 1, 6, 0, 1, 8}, none),
		// first b offset landing below zero
		patchBody(nodes, []byte{1, 1, 1, 1}, none),
	}
}

// v1PatchBody is a genuine DMTP v1 body (one node, no mesh) as the
// previous codec wrote it: a shard and a router from different builds
// must fail the attempt, not misread each other.
func v1PatchBody() []byte {
	b := append([]byte(tileWireMagic), 1)
	b = append(b, make([]byte, 5*8)...) // Rect, E
	b = append(b, 1)                    // FetchedRecords
	b = append(b, 1)                    // node count
	b = append(b, 7)                    // ID
	b = append(b, make([]byte, 6*8)...) // Pos, ERaw, ELow, EHigh
	b = append(b, 1, 1, 1, 1, 1)        // Parent, Child1, Child2, Wing1, Wing2 = -1
	b = append(b, make([]byte, 4*8)...) // MBR
	b = append(b, 0)                    // conn count
	return append(b, 0, 0, 0)           // edges, tris, outPairs
}

// v2PatchBody is a genuine DMTP v2 body — a 7-node tile of highland 17²
// with edges, four triangles and out-pairs — captured from the encoder
// before the triangle section was dropped.
func v2PatchBody(tb testing.TB) []byte {
	tb.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "dmtp-v2.bin"))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// stitchFuzzInput frames a FuzzStitchDecoded input: a body count, the ROI
// as four bytes, then every body but the last behind a two-byte
// little-endian length; the last takes the rest.
func stitchFuzzInput(roi [4]byte, bodies ...[]byte) []byte {
	in := append([]byte{byte(len(bodies) - 1)}, roi[:]...)
	for i, b := range bodies {
		if i < len(bodies)-1 {
			in = binary.LittleEndian.AppendUint16(in, uint16(len(b)))
		}
		in = append(in, b...)
	}
	return in
}

// FuzzStitchDecoded stitches whatever decodes. A router hands StitchTiles
// one to a few bodies that each passed DecodeTilePatch — so canonical, but
// otherwise anything: pair lists naming IDs no tile has, IDs up to
// MaxInt64, the same tile twice, tiles that disagree about a node. The
// stitch must not panic, must allocate in proportion to the bytes it was
// given and the mesh it returns, and must return a mesh whose edges and
// triangles are strictly ascending over its own vertex set.
func FuzzStitchDecoded(f *testing.F) {
	ds, _ := buildDataset(f, 17, "highland")
	s := newTestStore(f, ds)
	var real [][]byte
	for _, r := range tileCover(s, fullRect(), 1) {
		tp, err := s.MaterializeTile(r, eAtPercentile(ds, 0.9))
		if err != nil {
			f.Fatal(err)
		}
		real = append(real, EncodeTilePatch(tp))
	}
	// Hand-made tiles at the origin, LOD 0: canonical, and wrong.
	tile := func(ids []int64, edges, out [][2]int64) []byte {
		tp := &TilePatch{ids: ids, pos: make([]geom.Point3, len(ids))}
		for _, p := range edges {
			tp.edges.add(p[0], p[1])
		}
		for _, p := range out {
			tp.outPairs.add(p[0], p[1])
		}
		b := EncodeTilePatch(tp)
		if _, err := DecodeTilePatch(b); err != nil {
			f.Fatalf("seed tile does not decode: %v", err)
		}
		return b
	}
	const top = math.MaxInt64
	wide := [4]byte{0, 0, 255, 255} // covers the terrain and the origin
	f.Add(stitchFuzzInput(wide, real...))
	f.Add(stitchFuzzInput([4]byte{100, 90, 51, 60}, real...))  // the ROI cuts through all four
	f.Add(stitchFuzzInput(wide, real[0], real[0], real[1]))    // a tile given twice
	f.Add(stitchFuzzInput(wide, real[2], tile(nil, nil, nil))) // an empty tile, at another LOD
	// Edges and out-pairs naming IDs absent from every node list, heads included.
	f.Add(stitchFuzzInput(wide, tile([]int64{0, 3}, [][2]int64{{0, 3}, {0, 7}, {5, 4}}, [][2]int64{{1, 0}, {3, 9}})))
	// IDs at the top of the range, a triangle closed across three tiles,
	// a self pair, an edge spelled high-low.
	f.Add(stitchFuzzInput(wide,
		tile([]int64{0, top - 1}, [][2]int64{{0, top - 1}, {top - 1, 0}}, [][2]int64{{0, top}, {top - 1, top - 1}}),
		tile([]int64{top - 1, top}, nil, [][2]int64{{top - 1, 5}, {top, 0}, {top, top - 1}}),
		tile([]int64{5, top}, nil, [][2]int64{{5, top}, {top, top}})))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		at := func(i int) float64 { return (float64(data[i]) - 64) / 128 }
		roi := geom.Rect{MinX: at(1), MinY: at(2)}
		roi.MaxX, roi.MaxY = roi.MinX+at(3)+0.5, roi.MinY+at(4)+0.5
		rest := data[5:]
		var tiles []*TilePatch
		for left := int(data[0] % 4); left >= 0; left-- {
			body := rest
			if left > 0 {
				if len(rest) < 2 || len(rest)-2 < int(binary.LittleEndian.Uint16(rest)) {
					return
				}
				n := 2 + int(binary.LittleEndian.Uint16(rest))
				body, rest = rest[2:n], rest[n:]
			}
			tp, err := DecodeTilePatch(body)
			if err != nil {
				return
			}
			tiles = append(tiles, tp)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := StitchTiles(roi, tiles[0].E, tiles)
		runtime.ReadMemStats(&after)
		if err != nil {
			return // tiles at different LODs: refused, not stitched
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+64*(len(data)+len(res.Triangles))); got > limit {
			t.Fatalf("stitching %d input bytes into %d triangles allocated %d bytes, limit %d",
				len(data), len(res.Triangles), got, limit)
		}
		requireAscendingMesh(t, "stitch", res)
	})
}
