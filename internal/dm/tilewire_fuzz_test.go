package dm

import (
	"bytes"
	"errors"
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
//
// The seed corpus is a real encoded patch cut at every byte offset, so
// the fuzzer starts at every field boundary of the format (header,
// counts, node records, pair runs, triangles) rather than having to
// discover the framing from scratch — plus trailing garbage, non-minimal
// and out-of-order spellings, and a genuine v1 body.
func FuzzTilePatchDecode(f *testing.F) {
	ds, _ := buildDataset(f, 17, "highland")
	s := newTestStore(f, ds)
	tp, err := s.MaterializeTile(geom.Rect{MinX: 0.1, MinY: 0.2, MaxX: 0.7, MaxY: 0.8}, eAtPercentile(ds, 0.9))
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

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeTilePatch(data)
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

// patchBody assembles a DMTP v2 body from a header and raw section bytes.
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
	tris := []byte{0}
	return [][]byte{
		patchBody(nodes, edges, tris, none), // baseline: valid
		// non-minimal uvarint: node count 2 spelled in two bytes
		patchBody(append([]byte{0x82, 0x00}, nodes[1:]...), edges, tris, none),
		// zero ID delta: the second node repeats the first
		patchBody(append(append([]byte{2}, node(1)...), node(0)...), edges, tris, none),
		// ID delta overflowing int64: 1 + MaxInt64
		patchBody(append(append([]byte{2}, node(2)...),
			node(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)...), none, tris, none),
		// a run of length zero
		patchBody(nodes, []byte{1, 1, 0, 6}, tris, none),
		// a run longer than the pairs left
		patchBody(nodes, []byte{1, 1, 2, 6, 1}, tris, none),
		// duplicate pair: second b repeats the first (delta 0)
		patchBody(nodes, []byte{2, 1, 2, 6, 0}, tris, none),
		// two runs with the same a (delta 0): the encoder would merge them
		patchBody(nodes, []byte{2, 1, 1, 6, 0, 1, 8}, tris, none),
		// first b offset landing below zero
		patchBody(nodes, []byte{1, 1, 1, 1}, tris, none),
		// triangles out of order: (0,1,2) after (0,1,3)
		patchBody(nodes, none, []byte{2, 0, 1, 2, 0, 1, 1}, none),
		// duplicate triangle
		patchBody(nodes, none, []byte{2, 0, 1, 1, 0, 1, 1}, none),
		// degenerate triangle: B == A
		patchBody(nodes, none, []byte{1, 0, 0, 1}, none),
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
