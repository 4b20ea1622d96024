package dm

import (
	"errors"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"dmesh/internal/geom"
	"dmesh/internal/pm"
	"dmesh/internal/storage/faultfs"
	"dmesh/internal/storage/heapfile"
	"dmesh/internal/storage/pager"
	"dmesh/internal/wire"
)

// packedFixtures covers the encoding's whole value space: every float
// escape (dyadic, +0 ELow, +Inf EHigh, raw), adversarial IEEE bit
// patterns (NaN payloads, -0.0, denormals, extremes), parents near, far
// and absent, and connection lists from empty to max valence with
// negative first deltas.
func packedFixtures() []Node {
	nan1 := math.Float64frombits(0x7ff8dead_beef0001) // NaN, custom payload
	nan2 := math.Float64frombits(0xfff00000_00000001) // negative signaling-style NaN
	mk := func(id int64, x, y, z, elo, ehi float64, parent int64, conn []int64) Node {
		return Node{ID: id, Pos: geom.Point3{X: x, Y: y, Z: z},
			ELow: elo, EHigh: ehi, Parent: parent, Conn: conn}
	}
	dense := func(from int64, n int) []int64 { // one-byte deltas
		c := make([]int64, n)
		for i := range c {
			c[i] = from + int64(i)
		}
		return c
	}
	return []Node{
		// A typical leaf: dyadic grid coordinates, ELow +0, a near parent.
		mk(7, 0.5, 0.25, 3.0/4096, 0, 0.125, 9, []int64{3, 5, 9, 11}),
		// A root: EHigh +Inf, no parent.
		mk(100, 0.5, 0.5, 1, 0.25, math.Inf(1), pm.None, []int64{98, 99, 101}),
		// NaN payloads and -0.0 must take the raw path bit-for-bit.
		mk(1, nan1, math.Copysign(0, -1), nan2, math.Copysign(0, -1), nan1, pm.None, nil),
		// Denormals, extremes, and -Inf.
		mk(2, math.SmallestNonzeroFloat64, -math.MaxFloat64, math.Inf(-1),
			math.SmallestNonzeroFloat64, math.Inf(-1), pm.None, []int64{2}),
		// Non-dyadic irrationals alongside dyadic negatives.
		mk(3, 0.1, -3.75, math.Pi, 1e-9, 2.5, 0, []int64{0, 1, 2, 3}),
		// Huge ID with a connection list entirely below it (negative first
		// delta) and a parent far away.
		mk(1<<40, 0.5, 0.5, 0.5, 0, math.Inf(1), 0, []int64{-5, 0, 3, 1 << 39}),
		// ID 0, empty everything.
		mk(0, 0, 0, 0, 0, math.Inf(1), pm.None, nil),
		// ELow exactly -0.0: must NOT take the pkELowZero escape (which
		// restores +0.0) — the raw path preserves the sign bit.
		mk(12, 1, 1, 1, math.Copysign(0, -1), 1, pm.None, []int64{10, 11, 13}),
		// Dyadic boundary: the largest index that still round-trips, and
		// one past it (falls back to raw).
		mk(13, float64(int64(1)<<41)/4096, float64(int64(1)<<41+4096)/4096, -float64(int64(1)<<41)/4096,
			0, math.Inf(1), pm.None, nil),
		// Max valence with dense deltas.
		mk(50, 0.5, 0.5, 0.5, 0.25, 0.5, 49, dense(100, 3000)),
		// Page boundaries of packedSplit: a 13-byte head plus 4 075
		// one-byte deltas fills a slotted page exactly, wholly inline; a
		// spilled 24-byte head (two-byte bitmap and count, 8-byte chain
		// head) plus 4 064 of them fills it exactly again.
		mk(60, 0.5, 0.5, 0.5, 0.25, 0.5, 59, dense(61, heapfile.MaxVarRecord-13)),
		mk(60, 0.5, 0.5, 0.5, 0.25, 0.5, 59, dense(61, 5000)),
	}
}

func requireNodeBitsEqual(t *testing.T, ctx string, want, got Node) {
	t.Helper()
	fb := math.Float64bits
	if got.ID != want.ID ||
		fb(got.Pos.X) != fb(want.Pos.X) || fb(got.Pos.Y) != fb(want.Pos.Y) ||
		fb(got.Pos.Z) != fb(want.Pos.Z) ||
		fb(got.ELow) != fb(want.ELow) || fb(got.EHigh) != fb(want.EHigh) ||
		got.Parent != want.Parent {
		t.Fatalf("%s: decoded node differs\nwant %+v\ngot  %+v", ctx, want, got)
	}
	if len(got.Conn) != len(want.Conn) {
		t.Fatalf("%s: %d conn IDs, want %d", ctx, len(got.Conn), len(want.Conn))
	}
	for i := range want.Conn {
		if got.Conn[i] != want.Conn[i] {
			t.Fatalf("%s: conn[%d] = %d, want %d", ctx, i, got.Conn[i], want.Conn[i])
		}
	}
}

// TestPackedRecordRoundTripBitExact is the codec's correctness property:
// decode(encode(n)) restores every field with the exact IEEE-754 bit
// pattern — NaN payloads, signed zeros, infinities, and denormals
// included — for lists from empty to max valence.
func TestPackedRecordRoundTripBitExact(t *testing.T) {
	var buf []byte
	for fi, n := range packedFixtures() {
		buf = EncodePackedRecord(&n, noOverflow, len(n.Conn), buf)
		if want := packedRecordLen(&n, len(n.Conn), false); len(buf) != want {
			t.Fatalf("fixture %d: encoded %d bytes, packedRecordLen says %d", fi, len(buf), want)
		}
		got, total, ref, err := DecodePackedRecord(buf, nil)
		if err != nil {
			t.Fatalf("fixture %d: %v", fi, err)
		}
		if total != len(n.Conn) || ref != noOverflow {
			t.Fatalf("fixture %d: total %d ref %d, want %d %d", fi, total, ref, len(n.Conn), noOverflow)
		}
		requireNodeBitsEqual(t, "fixture", n, got)
	}
}

// TestPackedRecordSpillRoundTrip exercises the overflow split: a record
// encoded with a partial inline prefix decodes to exactly that prefix
// plus the chain head and the whole list's count, and packedSplit keeps
// the whole list inline when it fits a page, else the longest prefix that
// does.
func TestPackedRecordSpillRoundTrip(t *testing.T) {
	var buf []byte
	fullPages, spillPages := 0, 0
	for fi, n := range packedFixtures() {
		inline, whole := packedSplit(&n), packedRecordLen(&n, len(n.Conn), false)
		switch {
		case whole <= heapfile.MaxVarRecord && inline != len(n.Conn):
			t.Fatalf("fixture %d: a %d-byte record spills after %d of %d IDs", fi, whole, inline, len(n.Conn))
		case inline < len(n.Conn) && (packedRecordLen(&n, inline, true) > heapfile.MaxVarRecord ||
			packedRecordLen(&n, inline+1, true) <= heapfile.MaxVarRecord):
			t.Fatalf("fixture %d: %d IDs inline is not the longest prefix that fits a page", fi, inline)
		}
		if whole == heapfile.MaxVarRecord {
			fullPages++
		}
		if inline < len(n.Conn) && packedRecordLen(&n, inline, true) == heapfile.MaxVarRecord {
			spillPages++
		}
		for _, inline := range []int{0, len(n.Conn) / 2} {
			if inline >= len(n.Conn) {
				continue
			}
			buf = EncodePackedRecord(&n, 4242, inline, buf)
			if want := packedRecordLen(&n, inline, true); len(buf) != want {
				t.Fatalf("fixture %d/%d: encoded %d bytes, want %d", fi, inline, len(buf), want)
			}
			got, total, ref, err := DecodePackedRecord(buf, nil)
			if err != nil {
				t.Fatalf("fixture %d/%d: %v", fi, inline, err)
			}
			if total != len(n.Conn) || ref != 4242 {
				t.Fatalf("fixture %d/%d: total %d ref %d", fi, inline, total, ref)
			}
			if len(got.Conn) != inline {
				t.Fatalf("fixture %d/%d: %d inline IDs decoded", fi, inline, len(got.Conn))
			}
			for i := 0; i < inline; i++ {
				if got.Conn[i] != n.Conn[i] {
					t.Fatalf("fixture %d/%d: conn[%d] = %d, want %d", fi, inline, i, got.Conn[i], n.Conn[i])
				}
			}
		}
	}
	if fullPages == 0 || spillPages == 0 {
		t.Fatalf("%d wholly inline and %d spilled fixtures fill a page exactly; want both above 0", fullPages, spillPages)
	}
}

// TestPackedDensity is the encoding's quantitative claim: packed pages
// hold at least 1.7x more records than str's fixed records on a real
// dataset, so the packed heap has fewer data pages.
func TestPackedDensity(t *testing.T) {
	ds := buildDatasetOnly(t, 33, "highland")
	build := func(l Layout) *Store {
		s, err := BuildStore(ds, StorePools{Layout: l})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	str, packed := build(LayoutSTR), build(LayoutPacked)
	density := func(s *Store) float64 { return float64(s.NumNodes()) / float64(s.DataPages()) }
	t.Logf("records/page: str %.1f, packed %.1f (%.2fx)", density(str), density(packed), density(packed)/density(str))
	if density(packed) < 1.7*density(str) {
		t.Fatalf("packed density %.1f rec/page < 1.7x str %.1f", density(packed), density(str))
	}
	if packed.DataPages() >= str.DataPages() {
		t.Fatalf("packed heap has %d data pages, str %d", packed.DataPages(), str.DataPages())
	}
}

// TestPackedOverflowCoLocated: a packed store's spilled chains stay
// inside the node heap, and a cold full-LOD query never touches the
// overflow file.
func TestPackedOverflowCoLocated(t *testing.T) {
	ds := inflateConn(buildDatasetOnly(t, 9, "highland"), overflowLengths...)
	s, err := BuildStore(ds, StorePools{Layout: LayoutPacked})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.OverflowPages(); got != 0 {
		t.Fatalf("packed store has %d overflow pages, want 0", got)
	}
	if err := s.DropCaches(); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	if _, err := s.ViewpointIndependent(fullRect(), eAtPercentile(ds, 0.5)); err != nil {
		t.Fatal(err)
	}
	bd := s.Breakdown()
	if bd.Overflow != 0 {
		t.Fatalf("packed store read %d overflow-file pages, want 0", bd.Overflow)
	}
	if bd.Data == 0 {
		t.Fatal("cold query read no data pages")
	}
}

// TestPackedLayoutPersistRoundTrip writes a packed store (plain and
// checksummed) to disk and reopens it: the meta plumbing, the
// compressed heap, and spilled chains must all survive, answering
// exactly like the in-memory store.
func TestPackedLayoutPersistRoundTrip(t *testing.T) {
	ds := inflateConn(buildDatasetOnly(t, 8, "crater"), overflowLengths...)
	mem, err := BuildStore(ds, StorePools{Layout: LayoutPacked})
	if err != nil {
		t.Fatal(err)
	}
	e := eAtPercentile(ds, 0.4)
	want, err := mem.ViewpointIndependent(fullRect(), e)
	if err != nil {
		t.Fatal(err)
	}
	for _, checksums := range []bool{false, true} {
		dir := t.TempDir()
		s, err := BuildStoreAt(ds, StorePools{Layout: LayoutPacked, Checksums: checksums}, dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := OpenStore(dir, StorePools{})
		if err != nil {
			t.Fatal(err)
		}
		if re.Layout() != LayoutPacked {
			t.Fatalf("reopened layout %v, want packed", re.Layout())
		}
		got, err := re.ViewpointIndependent(fullRect(), e)
		if err != nil {
			t.Fatal(err)
		}
		requireSameMesh(t, "reopened packed store", got, want)
		for i := range overflowLengths {
			id := int64(i+1) * (int64(len(ds.Conn)) / int64(len(overflowLengths)+1))
			n, err := re.FetchByID(id)
			if err != nil {
				t.Fatal(err)
			}
			if len(n.Conn) != len(ds.Conn[id]) {
				t.Fatalf("node %d: %d conn IDs after reopen, want %d", id, len(n.Conn), len(ds.Conn[id]))
			}
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPackedDirectoryAnswersLikeSTRDirectory runs both layouts end to end
// through the directory API: a str store and a packed store built into
// their own directories from one dataset, the packed one reopened, answer
// alike; and building over the packed directory is refused.
func TestPackedDirectoryAnswersLikeSTRDirectory(t *testing.T) {
	ds := inflateConn(buildDatasetOnly(t, 8, "highland"), overflowLengths...)
	srcDir, outDir := t.TempDir(), filepath.Join(t.TempDir(), "packed")
	src, err := BuildStoreAt(ds, StorePools{Layout: LayoutSTR}, srcDir)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	out, err := BuildStoreAt(ds, StorePools{Layout: LayoutPacked}, outDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStore(outDir, StorePools{})
	if err != nil {
		t.Fatal(err)
	}
	if re.Layout() != LayoutPacked {
		t.Fatalf("packed store reopened as %v, want packed", re.Layout())
	}
	e := eAtPercentile(ds, 0.5)
	want, err := src.ViewpointIndependent(fullRect(), e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.ViewpointIndependent(fullRect(), e)
	if err != nil {
		t.Fatal(err)
	}
	requireSameMesh(t, "reopened packed store", got, want)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildStoreAt(ds, StorePools{Layout: LayoutSTR}, outDir); err == nil {
		t.Fatal("building over an existing store directory must fail")
	}
}

// TestFaultedStoreErrsThenHeals covers queries against a store whose page
// files fail reads, in each layout: a full by-ID scan and a range query
// surface the injected fault as an error (never a panic, never a silently
// wrong answer), and once healed the store answers exactly like a
// fault-free str store. Each file the run reads is faulted in turn, at
// the middle one of the reads a dry pass of the same run, from the same
// cold pools, makes of it: a read that really happens however densely the
// layout packs.
func TestFaultedStoreErrsThenHeals(t *testing.T) {
	ds := inflateConn(buildDatasetOnly(t, 8, "crater"), overflowLengths...)
	ref, err := BuildStore(ds, StorePools{Layout: LayoutSTR})
	if err != nil {
		t.Fatal(err)
	}
	e := eAtPercentile(ds, 0.5)
	want, err := ref.ViewpointIndependent(fullRect(), e)
	if err != nil {
		t.Fatal(err)
	}
	for _, layout := range allLayouts {
		var faults []*faultfs.Backend // heap, overflow, r*-tree, id index
		s, err := BuildStore(ds, StorePools{Layout: layout, WrapBackend: func(b pager.Backend) pager.Backend {
			fb := faultfs.Wrap(b)
			faults = append(faults, fb)
			return fb
		}})
		if err != nil {
			t.Fatal(err)
		}
		coldStart := func() {
			if err := s.DropCaches(); err != nil {
				t.Fatal(err)
			}
			for _, fb := range faults {
				fb.ResetStats()
			}
		}
		runs := map[string]func() error{
			"by-ID scan": func() error {
				for id := int64(0); id < s.NumNodes(); id++ {
					if _, err := s.FetchByID(id); err != nil {
						return err
					}
				}
				return nil
			},
			"range query": func() error { _, err := s.ViewpointIndependent(fullRect(), e); return err },
		}
		for name, run := range runs {
			coldStart()
			if err := run(); err != nil {
				t.Fatalf("%v: %s dry pass: %v", layout, name, err)
			}
			var reads [4]uint64
			for i, fb := range faults {
				reads[i] = fb.Stats().Ops[faultfs.Read]
			}
			if reads[0] == 0 {
				t.Fatalf("%v: %s read no data page", layout, name)
			}
			for i, fb := range faults {
				if reads[i] == 0 {
					continue
				}
				coldStart()
				nth := (reads[i] + 1) / 2
				fb.SetSchedule(faultfs.Read, faultfs.Schedule{Nth: []uint64{nth}})
				if err := run(); err == nil {
					t.Fatalf("%v: %s against a faulted store must fail (file %d, read %d of %d)", layout, name, i, nth, reads[i])
				} else if !errors.Is(err, faultfs.ErrInjected) {
					t.Fatalf("%v: %s error should wrap the injected fault, got: %v", layout, name, err)
				}
				fb.Heal()
			}
		}
		if err := s.DropCaches(); err != nil {
			t.Fatal(err)
		}
		got, err := s.ViewpointIndependent(fullRect(), e)
		if err != nil {
			t.Fatal(err)
		}
		requireSameMesh(t, layout.String()+" healed store", got, want)
	}
}

// TestPackedLayoutVersionGate: a packed store whose sidecar claims the
// version-5 format, the last with links in its records, must be refused
// by name before a page file is opened — this build reads version 6 only
// — and reopens once the sidecar says version 6 again.
func TestPackedLayoutVersionGate(t *testing.T) {
	ds := buildDatasetOnly(t, 6, "highland")
	dir := filepath.Join(t.TempDir(), "store")
	s, err := BuildStoreAt(ds, StorePools{Layout: LayoutPacked}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rewriteMeta(t, dir, func(m map[string]any) { m["version"] = 5 })
	pools, handed := countingPools(StorePools{})
	if s, err := OpenStore(dir, pools); !errors.Is(err, ErrStoreFormat) {
		if err == nil {
			s.Close()
		}
		t.Fatalf("version-5 packed store: OpenStore = %v, want ErrStoreFormat", err)
	}
	if len(*handed) != 0 {
		t.Fatalf("%d page files opened before the refusal", len(*handed))
	}
	rewriteMeta(t, dir, func(m map[string]any) { m["version"] = metaVersion })
	re, err := OpenStore(dir, StorePools{})
	if err != nil {
		t.Fatalf("version-6 packed store: %v", err)
	}
	defer re.Close()
	if re.Layout() != LayoutPacked {
		t.Fatalf("reopened layout %v, want packed", re.Layout())
	}
}

// TestPackedDecodeRejectsCorruption: the packed-specific violations —
// bad bitmap bits, every spelling the encoder would not have picked, and
// a node ID or spilled count one past its bound — surface as
// wire.ErrCorrupt, while both bounds themselves decode. (Truncation and
// non-minimal varints are the shared harness's, internal/wire
// TestDecoders.)
func TestPackedDecodeRejectsCorruption(t *testing.T) {
	// The leaf fixture's ID 7 and bitmap are one byte each, so the floats
	// start at 2: X and Y are 2-byte indices, Z one byte, ELow +0 none,
	// EHigh a 2-byte index at 7; the parent delta is byte 9 and the four
	// connection deltas are bytes 10-13.
	leaf := packedFixtures()[0]
	encode := func(edit func(n *Node)) []byte {
		n := leaf
		edit(&n)
		return EncodePackedRecord(&n, noOverflow, len(n.Conn), nil)
	}
	valid := encode(func(*Node) {})
	flags := uint64(valid[1])
	// respell swaps the bitmap for f and the bytes from..to for mid.
	respell := func(f uint64, from, to int, mid ...byte) []byte {
		out := wire.AppendUvarint(append([]byte{}, valid[0]), f)
		out = append(append(out, valid[2:from]...), mid...)
		return append(out, valid[to:]...)
	}
	// The same record with ELow -0.0 carries ELow as 8 raw bytes; clearing
	// the sign bit leaves +0.0 spelled raw instead of by its escape bit.
	rawZero := encode(func(n *Node) { n.ELow = math.Copysign(0, -1) })
	rawZero[2+2+2+1+7] &^= 0x80 // last byte of ELow
	// Likewise EHigh -Inf travels raw, and clearing its sign leaves +Inf.
	rawInf := encode(func(n *Node) { n.EHigh = math.Inf(-1) })
	rawInf[2+2+2+1+7] &^= 0x80 // ELow +0 takes no bytes here; last byte of EHigh
	ff := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	// A record whose bitmap is 0 (no parent, every float raw), respelled
	// with pkBits alone: the lowest reserved value.
	allRaw := encode(func(n *Node) {
		*n = Node{ID: 7, Pos: geom.Point3{X: 0.1, Y: 0.2, Z: 0.3}, ELow: 0.4, EHigh: 0.7, Parent: pm.None}
	})
	if allRaw[1] != 0 {
		t.Fatalf("all-raw record has bitmap %#x, want 0", allRaw[1])
	}
	allRaw = append(wire.AppendUvarint([]byte{allRaw[0]}, pkBits), allRaw[2:]...)
	// The largest node ID, and the same record respelled one past it.
	maxID := encode(func(n *Node) { n.ID, n.Parent, n.Conn = math.MaxInt64, pm.None, nil })
	pastMaxID := append(wire.AppendUvarint(nil, math.MaxInt64+1),
		maxID[len(wire.AppendUvarint(nil, math.MaxInt64)):]...)
	// A spilled leaf with two IDs inline, respelled with count c: head is
	// the same record with none inline, so it ends in the one-byte count.
	spill := EncodePackedRecord(&leaf, 99, 2, nil)
	head := EncodePackedRecord(&leaf, 99, 0, nil)
	spilledCount := func(c uint64) []byte {
		out := wire.AppendUvarint(append([]byte{}, head[:len(head)-1]...), c)
		return append(out, spill[len(head):]...)
	}
	bounds := []struct {
		name  string
		buf   []byte
		id    int64
		total int
	}{
		{"node ID MaxInt64", maxID, math.MaxInt64, 0},
		{"spilled count maxPackedConn", spilledCount(maxPackedConn), leaf.ID, maxPackedConn},
	}
	for _, b := range bounds {
		n, total, _, err := DecodePackedRecord(b.buf, nil)
		if err != nil || n.ID != b.id || total != b.total {
			t.Errorf("%s: ID %d, count %d, err %v; want ID %d, count %d", b.name, n.ID, total, err, b.id, b.total)
		}
	}
	cases := map[string][]byte{
		"node ID MaxInt64+1":            pastMaxID,
		"spilled count maxPackedConn+1": spilledCount(maxPackedConn + 1),
		"escapable EHigh sent raw":      rawInf,
		"escapable ELow as index 0":     respell(flags^(pkELowZero|pkELowDyadic), 7, 7, 0x00),
		"reserved bit":                  respell(flags|pkBits, 2, 2),
		"bitmap exactly pkBits":         allRaw,
		"ELow zero and dyadic":          respell(flags|pkELowDyadic, 2, 2),
		"escapable ELow sent raw":       rawZero,
		"overflow bit, no head":         respell(flags|pkOverflow, 2, 2, ff...),
		"presence bit on None":          respell(flags, 9, 10, 0x0f), // parent = ID-8 = pm.None
		"dyadic value sent raw":         respell(flags&^pkXDyadic, 2, 4, wire.AppendF64(nil, 0.5)...),
		"repeated connection ID":        append(append([]byte{}, valid...), 0x00),
		"descending connection ID":      append(append([]byte{}, valid...), 0x01),
		"spill with every ID inline":    EncodePackedRecord(&leaf, 99, len(leaf.Conn), nil),
	}
	if _, _, _, err := DecodePackedRecord(valid, nil); err != nil {
		t.Fatalf("baseline record does not decode: %v", err)
	}
	for name, buf := range cases {
		_, _, _, err := DecodePackedRecord(buf, nil)
		if !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%s: err = %v, want wire.ErrCorrupt", name, err)
		}
		t.Logf("%s: %v", name, err)
	}
}

// The fields of a packed record, as the census attributes its bytes.
var censusFields = []string{"connection deltas", "x/y", "z", "EHigh", "ELow", "ID",
	"parent", "bitmap", "connection count", "overflow"}

// packedCensus attributes every byte of every packed record s stores to the
// field that spells it, walking each record with the reader and in the
// order DecodePackedRecord uses; overflow counts both chain heads and the
// overflow records they name. It returns the bytes per field
// (censusFields' order), the records' total length and how many of them
// spill. Along the way it holds every record to the format's two size
// promises: the bitmap is one byte unless the record is a root or spills
// (then two), and only a spilled record spends a byte on its count.
func packedCensus(t *testing.T, s *Store) (bytes []int, total, spilled int) {
	t.Helper()
	const (
		deltas = iota
		xy
		z
		eHigh
		eLow
		id
		parent
		bitmap
		count
		overflow
	)
	bytes = make([]int, len(censusFields))
	cur := s.vheap.Cursor()
	defer cur.Release()
	for node := int64(0); node < s.NumNodes(); node++ {
		rid, err := s.idx.Get(node)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := cur.Record(heapfile.RID(rid))
		if err != nil {
			t.Fatal(err)
		}
		total += len(rec)
		r := wire.NewReader("census", rec)
		read := 0
		charge := func(field int) int {
			n := len(rec) - r.Len() - read
			bytes[field] += n
			read += n
			return n
		}
		r.Uvarint()
		charge(id)
		flags := r.Uvarint()
		wantBitmap := 1
		if flags&(pkEHighInf|pkOverflow) != 0 {
			wantBitmap = 2
		}
		if got := charge(bitmap); got != wantBitmap {
			t.Errorf("node %d: %d-byte bitmap %#x, want %d", node, got, flags, wantBitmap)
		}
		head := noOverflow
		if flags&pkOverflow != 0 {
			head = int64(r.U64())
			charge(overflow)
			spilled++
		}
		for i, field := range []int{xy, xy, z, eLow, eHigh} {
			if !(i == 3 && flags&pkELowZero != 0) && !(i == 4 && flags&pkEHighInf != 0) {
				r.Float(flags&packedDyBits[i] != 0)
			}
			charge(field)
		}
		if flags&pkParent != 0 {
			r.Varint()
		}
		charge(parent)
		if head != noOverflow {
			r.Uvarint()
		}
		if got := charge(count); (got > 0) != (head != noOverflow) {
			t.Errorf("node %d: %d count bytes, spilled %v", node, got, head != noOverflow)
		}
		for r.Len() > 0 && r.Err() == nil {
			r.Varint()
		}
		charge(deltas)
		if err := r.Done(); err != nil {
			t.Fatalf("node %d: %v", node, err)
		}
		for head != noOverflow {
			ob, err := cur.Record(heapfile.RID(head))
			if err != nil {
				t.Fatal(err)
			}
			bytes[overflow] += len(ob)
			total += len(ob)
			_, head = decodeOverflow(ob)
		}
	}
	return bytes, total, spilled
}

// TestPackedRecordCensus is ROADMAP item 13's census as a test: at 65²
// every byte of every packed record is charged to one field, the fields
// add up to the records' bytes, and those fit the heap's data pages (the
// difference is page and slot overhead). The log prints the table in
// bytes per terrain point, the unit of store_data_bytes_per_point. No
// list spills at 65², so no byte goes to a count; a store whose inflated
// lists do spill charges its counts and chains to exactly those records.
func TestPackedRecordCensus(t *testing.T) {
	const size = 65
	ds := buildDatasetOnly(t, size, "highland")
	s, err := BuildStore(ds, StorePools{Layout: LayoutPacked})
	if err != nil {
		t.Fatal(err)
	}
	bytes, total, spilled := packedCensus(t, s)
	sum := 0
	for i, b := range bytes {
		sum += b
		t.Logf("%-18s %7.2f B/pt", censusFields[i], float64(b)/(size*size))
	}
	stored := int(s.DataPages()) * pager.PageSize
	t.Logf("%-18s %7.2f B/pt of %.2f stored", "records", float64(total)/(size*size), float64(stored)/(size*size))
	if sum != total {
		t.Errorf("the fields hold %d bytes, the records %d", sum, total)
	}
	if total > stored {
		t.Errorf("the records hold %d bytes, more than the %d of the heap's data pages", total, stored)
	}
	if spilled != 0 {
		t.Errorf("%d records spill at %d²", spilled, size)
	}
	for i, b := range bytes {
		if spare := censusFields[i] == "overflow" || censusFields[i] == "connection count"; (b == 0) != spare {
			t.Errorf("%d bytes charged to %s", b, censusFields[i])
		}
	}

	inflated, err := BuildStore(inflateConn(buildDatasetOnly(t, 9, "highland"), overflowLengths...), StorePools{Layout: LayoutPacked})
	if err != nil {
		t.Fatal(err)
	}
	bytes, _, spilled = packedCensus(t, inflated)
	count, chains := bytes[slices.Index(censusFields, "connection count")], bytes[slices.Index(censusFields, "overflow")]
	if spilled == 0 || count == 0 || chains == 0 {
		t.Errorf("inflated store: %d records spill, %d count bytes, %d overflow bytes; want all three above 0", spilled, count, chains)
	}
}

// FuzzPackedRecordDecode feeds arbitrary bytes to the packed decoder:
// it must never panic, never allocate unboundedly, and classify every
// failure as wire.ErrCorrupt. Valid decodes must satisfy the encoding's
// invariants (a wholly inline list is the whole list, a spilled one holds
// fewer IDs than its count). The seeds spell every fixture wholly inline
// and, where the list allows, spilled — so the corpus holds a root's
// two-byte bitmap and a spilled record's count.
func FuzzPackedRecordDecode(f *testing.F) {
	for _, n := range packedFixtures() {
		f.Add(EncodePackedRecord(&n, noOverflow, len(n.Conn), nil))
		if len(n.Conn) > 1 {
			f.Add(EncodePackedRecord(&n, 99, 1, nil))
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0x80})
	f.Add([]byte{0x00, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		var arena connArena
		n, total, ref, err := DecodePackedRecord(data, &arena)
		if err != nil {
			if !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("error %v does not wrap wire.ErrCorrupt", err)
			}
			return
		}
		if ref == noOverflow && len(n.Conn) != total {
			t.Fatalf("no overflow but %d of %d IDs inline", len(n.Conn), total)
		}
		if ref != noOverflow && len(n.Conn) >= total {
			t.Fatalf("spilled, but %d of %d IDs inline", len(n.Conn), total)
		}
	})
}
