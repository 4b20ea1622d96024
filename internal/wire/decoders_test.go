package wire_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"dmesh"
	"dmesh/internal/dm"
	"dmesh/internal/geom"
	"dmesh/internal/obs"
	"dmesh/internal/pm"
	"dmesh/internal/stream"
	"dmesh/internal/wire"
)

// decoderRow is one wire format under the shared harness.
type decoderRow struct {
	name string
	// fixture is a valid encoding; golden is its SHA-256 as the parent of
	// the commit that introduced internal/wire produced it, so "the port
	// left every encoder's output byte-identical" is asserted, not assumed.
	fixture []byte
	golden  string
	// varints are offsets of varints in fixture that can be respelled
	// non-minimally without fixing up a length elsewhere.
	varints []int
	// older are genuine bodies of earlier versions of the format, captured
	// from the encoder that wrote them: each must fail with wire.ErrCorrupt.
	older [][]byte
	// cutOK lists the strict prefix lengths of fixture that are valid
	// encodings of their own, which must round-trip like it. A packed
	// record is not self-delimiting (its page slot supplies the length):
	// cut where a connection delta ends, it is the same node with a
	// shorter list.
	cutOK []int
	// cut is what a strict prefix fails with: wire.ErrCorrupt for the
	// slice decoders, stream.ErrTruncated for the resumable DMPS stream.
	cut error
	// roundTrip decodes b and re-encodes what it decoded. On success the
	// result must equal b. A stream decoder may also return the
	// re-encoding of the part it accepted alongside an error.
	roundTrip func(b []byte) ([]byte, error)
}

var (
	rowsOnce sync.Once
	rows     []decoderRow
)

// traceFixture is a four-span DMTW wire (query > cache, materialize >
// fetch) written out by hand: spans carry wall-clock times, so no public
// constructor produces a reproducible one.
const traceFixture = "DMTW\x01\x04" +
	"\x00\x00\x00\xd9\xd77\xe4\xea0\n\n" +
	"\n\x01\xdc\v\xb4\x10\x00\x00\x00" +
	"\a\x01\xa0\x1f\xb0\xda0\xe0\xa7\x12\n\x03" +
	"\x02\x03\x88'\xe0\xa7\x12\x00\x03\x00"

// packedFixture is a leaf record.
func packedFixture() dm.Node {
	return dm.Node{ID: 300, Pos: geom.Point3{X: 0.5, Y: math.Pi, Z: 3.0 / 4096},
		ELow: 0, EHigh: 0.125, Parent: 9, Conn: []int64{3, 5, 9, 299, 301, 4000}}
}

// packedV5 is packedFixture as store format v5 spelled it, with the
// links Child1 None, Child2 None, Wing1 5, Wing2 1<<33 and a two-byte
// bitmap.
const packedV5 = "\xac\x02\xb9\t\x80 \x18-DT\xfb!\t@\x06\x80\b\xc5\x04\xcd\x04\xa8\xfb\xff\xff?\x06\xd1\x04\x04\b\xc4\x04\x04\xe69"

// spilledFixture is the same node with two IDs inline and the rest on an
// overflow chain, so its record holds the count. A spilled record's
// inline run ends where the record does, so a shorter or longer tail is
// another valid record, and only the round-trip property applies to it.
func spilledFixture() []byte {
	node := packedFixture()
	return dm.EncodePackedRecord(&node, 99, 2, nil)
}

// rootFixture is the same node as a root: no parent and EHigh +Inf, the
// one kind of wholly inline record whose bitmap takes two bytes.
func rootFixture() []byte {
	node := packedFixture()
	node.Parent, node.EHigh = pm.None, math.Inf(1)
	return dm.EncodePackedRecord(&node, -1, len(node.Conn), nil)
}

// traceRoundTrip decodes a DMTW wire and writes its spans back out field
// by field, the children's cover and DA recovered as Dur − SelfDur and
// DA − SelfDA.
func traceRoundTrip(b []byte) ([]byte, error) {
	wt, err := obs.DecodeTraceWire(b)
	if err != nil {
		return nil, err
	}
	out := wire.AppendUvarint(append([]byte(nil), "DMTW\x01"...), uint64(len(wt.Spans)))
	for i := range wt.Spans {
		sp := &wt.Spans[i]
		for _, v := range [...]uint64{uint64(sp.Phase), uint64(sp.Parent + 1), uint64(sp.Start),
			uint64(sp.Dur), uint64(sp.Dur - sp.SelfDur()), sp.DA, sp.DA - sp.SelfDA()} {
			out = wire.AppendUvarint(out, v)
		}
	}
	return out, nil
}

func packedRoundTrip(b []byte) ([]byte, error) {
	n, total, ref, err := dm.DecodePackedRecord(b, nil)
	if err != nil {
		return nil, err
	}
	// A spilled record holds only the inline prefix of its list; the
	// encoder wants the whole list to write the total. Pad it — unless the
	// record claims more IDs than a test should allocate.
	inline := len(n.Conn)
	if total-inline > 1<<16 {
		return b, nil
	}
	n.Conn = append(n.Conn, make([]int64, total-inline)...)
	return dm.EncodePackedRecord(&n, ref, inline, nil), nil
}

// streamRoundTrip decodes a whole DMPS stream and re-encodes every batch
// it accepted from the decoder's own meshes. The decoder reads from a
// stream and stops after the announced batches, so "trailing garbage" is
// bytes it must leave unread: the wrapper reports them.
func streamRoundTrip(b []byte) ([]byte, error) {
	rd := bytes.NewReader(b)
	dec := stream.NewDecoder()
	if err := dec.Attach(rd); err != nil {
		return nil, err
	}
	// Attach accepted the header: magic, version, the ROI's four corners
	// and the target E as raw floats, then the batch count.
	hdr := wire.NewReader("DMPS", b[5:])
	rect := geom.Rect{MinX: hdr.F64(), MinY: hdr.F64(), MaxX: hdr.F64(), MaxY: hdr.F64()}
	out := append([]byte("DMPS"), 1)
	out = wire.AppendF64(out, rect.MinX, rect.MinY, rect.MaxX, rect.MaxY, hdr.F64())
	out = wire.AppendUvarint(out, uint64(dec.NumBatches()))
	var levels []float64
	var meshes []*dm.Result
	var derr error
	for !dec.Done() && derr == nil {
		var e float64
		if _, e, derr = dec.Next(); derr == nil {
			levels = append(levels, e)
			meshes = append(meshes, dec.Mesh())
		}
	}
	if len(levels) > 0 {
		st, err := stream.Encode(rect, levels, meshes)
		if err != nil {
			return nil, fmt.Errorf("accepted batches do not re-encode: %v", err)
		}
		for _, f := range st.Frames {
			out = append(out, f...)
		}
	}
	if derr == nil && rd.Len() > 0 {
		derr = fmt.Errorf("%d bytes after the last batch: %w", rd.Len(), wire.ErrCorrupt)
	}
	return out, derr
}

func decoderRows() []decoderRow {
	rowsOnce.Do(func() {
		must := func(err error) {
			if err != nil {
				panic(err)
			}
		}
		tr, err := dmesh.Build(dmesh.Config{Dataset: "highland", Size: 17, Seed: 7})
		must(err)
		store, err := tr.NewDMStore()
		must(err)
		cache, err := tr.NewTileCache(store, 0)
		must(err)

		tp, err := store.MaterializeTile(geom.Rect{MinX: 0.1, MinY: 0.2, MaxX: 0.7, MaxY: 0.8}, tr.LODPercentile(0.9))
		must(err)

		roi := geom.Rect{MinX: 0.2, MinY: 0.15, MaxX: 0.8, MaxY: 0.75}
		levels, err := stream.LevelsFor(cache.Grid().Ladder(), 0)
		must(err)
		meshes := make([]*dm.Result, len(levels))
		for i, e := range levels {
			meshes[i], _, err = cache.Query(roi, e)
			must(err)
		}
		st, err := stream.Encode(roi, levels, meshes)
		must(err)
		dmps := append([]byte{}, st.Header...)
		for _, f := range st.Frames {
			dmps = append(dmps, f...)
		}

		dmtpV2, err := os.ReadFile(filepath.Join("..", "dm", "testdata", "dmtp-v2.bin"))
		must(err)

		node := packedFixture()
		var listCuts []int
		for k := range node.Conn {
			short := node
			short.Conn = node.Conn[:k]
			listCuts = append(listCuts, len(dm.EncodePackedRecord(&short, -1, k, nil)))
		}
		rows = []decoderRow{{
			name:      "DMTW",
			fixture:   []byte(traceFixture),
			golden:    "24fb7fd972eb035b983300d0509619bf983003eb59829ad90cf2c32cdb0f1783",
			varints:   []int{4, 5, 9},
			cut:       wire.ErrCorrupt,
			roundTrip: traceRoundTrip,
		}, {
			name:    "DMTP",
			fixture: dm.EncodeTilePatch(tp),
			// Re-pinned when DMTP v3 dropped the triangle section (this
			// fixture's v2 encoding hashed d122b6a7…).
			golden:  "52d7f8a5e4da68e1af37018228d523354232a02db638467ef0b7f90a9920e34f",
			varints: []int{4, 45},
			older:   [][]byte{dmtpV2},
			cut:     wire.ErrCorrupt,
			roundTrip: func(b []byte) ([]byte, error) {
				tp, err := dm.DecodeTilePatch(b)
				if err != nil {
					return nil, err
				}
				return dm.EncodeTilePatch(tp), nil
			},
		}, {
			name:      "DMPS",
			fixture:   dmps,
			golden:    "a4385ada9103ad878979ad06a02ac5193e8124ee4aa079616a195c094c0d1be8",
			varints:   []int{4, 45, len(st.Header)},
			cut:       stream.ErrTruncated,
			roundTrip: streamRoundTrip,
		}, {
			name:    "packed",
			fixture: dm.EncodePackedRecord(&node, -1, len(node.Conn), nil),
			// Re-pinned when store format v6 dropped the links, the
			// two-byte bitmap and the inline count (v5 hashed d0fcf408…).
			golden:    "ee444251edc41839b79d37e470a1ac93e4eb455379a1fec0b418ca1f2e5df7aa",
			varints:   []int{0, 2},
			older:     [][]byte{[]byte(packedV5)},
			cutOK:     listCuts,
			cut:       wire.ErrCorrupt,
			roundTrip: packedRoundTrip,
		}}
	})
	return rows
}

// respell rewrites the varint at off non-minimally: same value, one more
// byte.
func respell(b []byte, off int) []byte {
	end := off
	for b[end] >= 0x80 {
		end++
	}
	out := append([]byte{}, b[:end]...)
	out = append(out, b[end]|0x80, 0x00)
	return append(out, b[end+1:]...)
}

// TestDecoders drives every wire decoder through the same four
// properties: (i) every strict prefix of a valid encoding fails with the
// row's cut error and never panics, unless the row lists it as a valid
// encoding of its own, which must then round-trip; (ii) a non-minimal varint is
// rejected; (iii) appended garbage is rejected; (iv) what decodes
// re-encodes to the identical bytes — plus the golden hash pinning the
// encoder's output, and the rejection of the format's earlier versions.
func TestDecoders(t *testing.T) {
	for _, row := range decoderRows() {
		t.Run(row.name, func(t *testing.T) {
			sum := sha256.Sum256(row.fixture)
			if got := hex.EncodeToString(sum[:]); got != row.golden {
				t.Errorf("encoder output changed: sha256 %s, golden %s", got, row.golden)
			}
			out, err := row.roundTrip(row.fixture)
			if err != nil {
				t.Fatalf("fixture does not decode: %v", err)
			}
			if !bytes.Equal(out, row.fixture) {
				t.Fatalf("fixture re-encodes to different bytes:\n in  %x\n out %x", row.fixture, out)
			}
			for cut := 0; cut < len(row.fixture); cut++ {
				out, err := row.roundTrip(row.fixture[:cut:cut])
				if slices.Contains(row.cutOK, cut) {
					if err != nil || !bytes.Equal(out, row.fixture[:cut]) {
						t.Fatalf("prefix of %d bytes, a valid encoding: %x, %v", cut, out, err)
					}
				} else if !errors.Is(err, row.cut) {
					t.Fatalf("prefix of %d bytes: err = %v, want %v", cut, err, row.cut)
				}
			}
			for _, off := range row.varints {
				if _, err := row.roundTrip(respell(row.fixture, off)); !errors.Is(err, wire.ErrCorrupt) {
					t.Errorf("non-minimal varint at offset %d: err = %v, want wire.ErrCorrupt", off, err)
				}
			}
			for _, tail := range [][]byte{{0x00}, {0xff}, row.fixture} {
				if _, err := row.roundTrip(append(append([]byte{}, row.fixture...), tail...)); !errors.Is(err, wire.ErrCorrupt) {
					t.Errorf("%d trailing bytes: err = %v, want wire.ErrCorrupt", len(tail), err)
				}
			}
			for i, b := range row.older {
				if _, err := row.roundTrip(b); !errors.Is(err, wire.ErrCorrupt) {
					t.Errorf("earlier-version body %d: err = %v, want wire.ErrCorrupt", i, err)
				}
			}
		})
	}
}

func TestPackedSpilledRoundTrip(t *testing.T) {
	in := spilledFixture()
	// Re-pinned with store format v6 (v5 hashed 24e9d979…).
	const golden = "05bca95278cd4c2702161da6e8df197da137678736ed47446f0c192247d79780"
	if sum := sha256.Sum256(in); hex.EncodeToString(sum[:]) != golden {
		t.Errorf("encoder output changed: sha256 %x, golden %s", sum, golden)
	}
	if out, err := packedRoundTrip(in); err != nil || !bytes.Equal(out, in) {
		t.Fatalf("spilled record round trip: %x -> %x, %v", in, out, err)
	}
}

// hostileDMPS spells four two-batch DMPS streams no encoder emits, each
// well-formed byte for byte and each contradicting the mesh its own first
// batch built (vertices 1, 2, 3 at the origin, their three edges, the
// triangle): the second batch removes and re-adds one edge, removes a
// triangle that was never sent, adds an edge to a vertex it removes, or
// adds a vertex already present. The decoder must reject all four.
func hostileDMPS() [][]byte {
	frame := func(idx byte, e float64, sets ...[]byte) []byte {
		p := wire.AppendF64([]byte{idx}, e)
		for _, set := range sets {
			p = append(p, set...)
		}
		return append(wire.AppendUvarint(nil, uint64(len(p))), p...)
	}
	none := []byte{0}
	hdr := wire.AppendF64(append([]byte("DMPS"), 1), 0, 0, 1, 1, 1)
	hdr = append(hdr, 2)
	first := frame(0, 2, none, none, none,
		[]byte{3, 1, 7, 0, 0, 0, 1, 7, 0, 0, 0, 1, 7, 0, 0, 0}, // vertices 1, 2, 3, all-dyadic zeros
		[]byte{3, 1, 1, 0, 2, 1, 1},                            // edges (1,2) (1,3) (2,3)
		[]byte{1, 1, 1, 1})                                     // triangle (1,2,3)
	var out [][]byte
	for _, second := range [][]byte{
		frame(1, 1, none, []byte{1, 1, 2}, none, none, []byte{1, 1, 2}, none),
		frame(1, 1, []byte{1, 1, 1, 2}, none, none, none, none, none),
		frame(1, 1, []byte{1, 1, 1, 1}, []byte{2, 1, 2, 1, 1}, []byte{1, 3}, []byte{1, 4, 7, 0, 0, 0}, []byte{1, 3, 1}, none),
		frame(1, 1, none, none, none, []byte{1, 3, 7, 0, 0, 0}, none, none),
	} {
		out = append(out, bytes.Join([][]byte{hdr, first, second}, nil))
	}
	return out
}

// TestHostileDMPS pins what the fuzz property alone would let slide (a
// wrongly accepted frame that happens to re-encode to itself): each
// hostile stream decodes its first batch and fails the second as corrupt.
func TestHostileDMPS(t *testing.T) {
	for i, s := range hostileDMPS() {
		out, err := streamRoundTrip(s)
		if !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("hostile stream %d: err = %v, want wire.ErrCorrupt", i, err)
		}
		const header = 4 + 1 + 5*8 + 1
		if !bytes.HasPrefix(s, out) || len(out) <= header || len(out) == len(s) {
			t.Errorf("hostile stream %d: accepted part is not the header and first batch (%d of %d bytes)", i, len(out), len(s))
		}
	}
}

// FuzzDecoders feeds arbitrary bytes to every decoder (the first byte
// selects the format): none may panic, every rejection must be
// wire.ErrCorrupt — or ErrTruncated for a DMPS stream that merely ends —
// and whatever is accepted must re-encode to the bytes it was decoded
// from, so byte equality is value equality in every format.
func FuzzDecoders(f *testing.F) {
	rows := decoderRows()
	for i, row := range rows {
		seed := append([]byte{byte(i)}, row.fixture...)
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		for _, off := range row.varints {
			f.Add(append([]byte{byte(i)}, respell(row.fixture, off)...))
		}
		for _, b := range row.older {
			f.Add(append([]byte{byte(i)}, b...))
		}
	}
	f.Add(append([]byte{byte(len(rows) - 1)}, spilledFixture()...))
	f.Add(append([]byte{byte(len(rows) - 1)}, rootFixture()...))
	for _, s := range hostileDMPS() {
		f.Add(append([]byte{2}, s...)) // rows[2] is DMPS
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		row, in := rows[int(data[0])%len(rows)], data[1:]
		out, err := row.roundTrip(in)
		if err != nil && !errors.Is(err, wire.ErrCorrupt) && !errors.Is(err, row.cut) {
			t.Fatalf("%s: error is neither wire.ErrCorrupt nor %v: %v", row.name, row.cut, err)
		}
		if err == nil && len(out) != len(in) || !bytes.HasPrefix(in, out) {
			t.Fatalf("%s: accepted input re-encodes to different bytes:\n in  %x\n out %x", row.name, in, out)
		}
	})
}
