package dm

import (
	"errors"
	"math"
	"path/filepath"
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
// patterns (NaN payloads, -0.0, denormals, extremes), every topology-ref
// shape (all None, mixed, far deltas), and connection lists from empty
// to max valence with negative first deltas.
func packedFixtures() []linkedNode {
	nan1 := math.Float64frombits(0x7ff8dead_beef0001) // NaN, custom payload
	nan2 := math.Float64frombits(0xfff00000_00000001) // negative signaling-style NaN
	mk := func(id int64, x, y, z, elo, ehi float64, refs [5]int64, conn []int64) linkedNode {
		return linkedNode{Node{ID: id, Pos: geom.Point3{X: x, Y: y, Z: z},
			ELow: elo, EHigh: ehi, Parent: refs[0], Conn: conn}, [4]int64(refs[1:])}
	}
	none := [5]int64{pm.None, pm.None, pm.None, pm.None, pm.None}
	longConn := make([]int64, 3000)
	for i := range longConn {
		longConn[i] = int64(100 + i)
	}
	return []linkedNode{
		// A typical leaf: dyadic grid coordinates, ELow +0, near refs.
		mk(7, 0.5, 0.25, 3.0/4096, 0, 0.125, [5]int64{9, pm.None, pm.None, 5, 11}, []int64{3, 5, 9, 11}),
		// A root: EHigh +Inf, children, no parent.
		mk(100, 0.5, 0.5, 1, 0.25, math.Inf(1), [5]int64{pm.None, 40, 60, pm.None, pm.None}, []int64{98, 99, 101}),
		// NaN payloads and -0.0 must take the raw path bit-for-bit.
		mk(1, nan1, math.Copysign(0, -1), nan2, math.Copysign(0, -1), nan1, none, nil),
		// Denormals, extremes, and -Inf.
		mk(2, math.SmallestNonzeroFloat64, -math.MaxFloat64, math.Inf(-1),
			math.SmallestNonzeroFloat64, math.Inf(-1), none, []int64{2}),
		// Non-dyadic irrationals alongside dyadic negatives.
		mk(3, 0.1, -3.75, math.Pi, 1e-9, 2.5, [5]int64{0, 1, 2, pm.None, 4}, []int64{0, 1, 2, 3}),
		// Huge ID with a connection list entirely below it (negative first
		// delta) and refs far away in both directions.
		mk(1<<40, 0.5, 0.5, 0.5, 0, math.Inf(1),
			[5]int64{0, 1 << 41, pm.None, 3, pm.None}, []int64{-5, 0, 3, 1 << 39}),
		// ID 0, empty everything.
		mk(0, 0, 0, 0, 0, math.Inf(1), none, nil),
		// ELow exactly -0.0: must NOT take the pkELowZero escape (which
		// restores +0.0) — the raw path preserves the sign bit.
		mk(12, 1, 1, 1, math.Copysign(0, -1), 1, none, []int64{10, 11, 13}),
		// Dyadic boundary: the largest index that still round-trips, and
		// one past it (falls back to raw).
		mk(13, float64(int64(1)<<41)/4096, float64(int64(1)<<41+4096)/4096, -float64(int64(1)<<41)/4096,
			0, math.Inf(1), none, nil),
		// Max valence with dense deltas.
		mk(50, 0.5, 0.5, 0.5, 0.25, 0.5, [5]int64{49, 51, 52, pm.None, 48}, longConn),
	}
}

// linkedNode is a record's whole tuple: the Node a query holds plus the
// links (Child1, Child2, Wing1, Wing2) only the encoders take.
type linkedNode struct {
	Node
	links [4]int64
}

func requireNodeBitsEqual(t *testing.T, ctx string, want, got linkedNode) {
	t.Helper()
	fb := math.Float64bits
	if got.ID != want.ID ||
		fb(got.Pos.X) != fb(want.Pos.X) || fb(got.Pos.Y) != fb(want.Pos.Y) ||
		fb(got.Pos.Z) != fb(want.Pos.Z) ||
		fb(got.ELow) != fb(want.ELow) || fb(got.EHigh) != fb(want.EHigh) ||
		got.Parent != want.Parent || got.links != want.links {
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
		buf = EncodePackedRecord(&n.Node, n.links, noOverflow, len(n.Conn), buf)
		if want := packedRecordLen(&n.Node, n.links, len(n.Conn), false); len(buf) != want {
			t.Fatalf("fixture %d: encoded %d bytes, packedRecordLen says %d", fi, len(buf), want)
		}
		got, links, total, ref, err := DecodePackedRecord(buf, nil)
		if err != nil {
			t.Fatalf("fixture %d: %v", fi, err)
		}
		if total != len(n.Conn) || ref != noOverflow {
			t.Fatalf("fixture %d: total %d ref %d, want %d %d", fi, total, ref, len(n.Conn), noOverflow)
		}
		requireNodeBitsEqual(t, "fixture", n, linkedNode{got, links})
	}
}

// TestPackedRecordSpillRoundTrip exercises the overflow split: a record
// encoded with a partial inline prefix decodes to exactly that prefix
// plus the chain head, and packedSplit never overruns a page.
func TestPackedRecordSpillRoundTrip(t *testing.T) {
	var buf []byte
	for fi, n := range packedFixtures() {
		for _, inline := range []int{0, len(n.Conn) / 2} {
			if inline >= len(n.Conn) {
				continue
			}
			buf = EncodePackedRecord(&n.Node, n.links, 4242, inline, buf)
			if want := packedRecordLen(&n.Node, n.links, inline, true); len(buf) != want {
				t.Fatalf("fixture %d/%d: encoded %d bytes, want %d", fi, inline, len(buf), want)
			}
			got, _, total, ref, err := DecodePackedRecord(buf, nil)
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
// fault-free str store.
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
		var faults []*faultfs.Backend
		s, err := BuildStore(ds, StorePools{Layout: layout, WrapBackend: func(b pager.Backend) pager.Backend {
			fb := faultfs.Wrap(b)
			faults = append(faults, fb)
			return fb
		}})
		if err != nil {
			t.Fatal(err)
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
			if err := s.DropCaches(); err != nil {
				t.Fatal(err)
			}
			for _, fb := range faults {
				fb.SetSchedule(faultfs.Read, faultfs.Schedule{Every: 5})
			}
			if err := run(); err == nil {
				t.Fatalf("%v: %s against a faulted store must fail", layout, name)
			} else if !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("%v: %s error should wrap the injected fault, got: %v", layout, name, err)
			}
			for _, fb := range faults {
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
// version-4 format packed was introduced under must be refused by name
// before a page file is opened — this build reads version 5 only — and
// reopens once the sidecar says version 5 again.
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
	rewriteMeta(t, dir, func(m map[string]any) { m["version"] = 4 })
	pools, handed := countingPools(StorePools{})
	if s, err := OpenStore(dir, pools); !errors.Is(err, ErrStoreFormat) {
		if err == nil {
			s.Close()
		}
		t.Fatalf("version-4 packed store: OpenStore = %v, want ErrStoreFormat", err)
	}
	if len(*handed) != 0 {
		t.Fatalf("%d page files opened before the refusal", len(*handed))
	}
	rewriteMeta(t, dir, func(m map[string]any) { m["version"] = metaVersion })
	re, err := OpenStore(dir, StorePools{})
	if err != nil {
		t.Fatalf("version-5 packed store: %v", err)
	}
	defer re.Close()
	if re.Layout() != LayoutPacked {
		t.Fatalf("reopened layout %v, want packed", re.Layout())
	}
}

// TestPackedDecodeRejectsCorruption: the packed-specific violations —
// bad bitmap bits, and every spelling the encoder would not have picked —
// surface as wire.ErrCorrupt. (Truncation and non-minimal varints are the
// shared harness's, internal/wire TestDecoders.)
func TestPackedDecodeRejectsCorruption(t *testing.T) {
	// ID 7 is one byte, so the bitmap is bytes 1-2 and the floats start at 3.
	leaf := packedFixtures()[0]
	encode := func(edit func(n *Node)) []byte {
		n := leaf.Node
		edit(&n)
		return EncodePackedRecord(&n, leaf.links, noOverflow, len(n.Conn), nil)
	}
	valid := encode(func(*Node) {})
	flip := func(b []byte, hi, lo byte) []byte {
		out := append([]byte{}, b...)
		out[1] ^= lo
		out[2] ^= hi
		return out
	}
	// The same record with ELow -0.0 carries ELow as 8 raw bytes; clearing
	// the sign bit leaves +0.0 spelled raw instead of by its escape bit.
	rawZero := encode(func(n *Node) { n.ELow = math.Copysign(0, -1) })
	rawZero[3+2+2+1+7] &^= 0x80 // X, Y are 2-byte indices, Z one byte; last byte of ELow
	// Likewise EHigh -Inf travels raw, and clearing its sign leaves +Inf.
	rawInf := encode(func(n *Node) { n.EHigh = math.Inf(-1) })
	rawInf[3+2+2+1+7] &^= 0x80 // ELow +0 takes no bytes here; last byte of EHigh
	cases := map[string][]byte{
		"escapable EHigh sent raw":  rawInf,
		"escapable ELow as index 0": append(append(flip(valid, 0x03, 0)[:8:8], 0x00), valid[8:]...),
		"reserved bit":              flip(valid, 0xE0, 0),
		"ELow zero and dyadic":      flip(valid, 0x02, 0),
		"escapable ELow sent raw":   rawZero,
		"overflow bit, no head":     append(append(flip(valid, 0x10, 0)[:3:3], 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff), valid[3:]...),
		"presence bit on None":      append(append(flip(valid, 0, pkChild1)[:11:11], 0x0f), valid[11:]...), // Child1 = ID-8 = pm.None
		"dyadic value sent raw":     rawInsteadOfDyadic(valid),
		"inline IDs past the count": append(append([]byte{}, valid...), 0x02),
	}
	if _, _, _, _, err := DecodePackedRecord(valid, nil); err != nil {
		t.Fatalf("baseline record does not decode: %v", err)
	}
	for name, buf := range cases {
		_, _, _, _, err := DecodePackedRecord(buf, nil)
		if !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%s: err = %v, want wire.ErrCorrupt", name, err)
		}
		t.Logf("%s: %v", name, err)
	}
}

// rawInsteadOfDyadic respells the leaf fixture's X (0.5, dyadic index
// 2048, two bytes at offset 3) as raw IEEE bits with its dyadic bit clear.
func rawInsteadOfDyadic(valid []byte) []byte {
	out := append([]byte{}, valid[:3]...)
	out[1] &^= pkXDyadic
	out = wire.AppendF64(out, 0.5)
	return append(out, valid[5:]...)
}

// The fields of a packed record, as the census attributes its bytes.
var censusFields = []string{"connection deltas", "x/y", "z", "EHigh", "ELow", "ID",
	"parent", "children", "wings", "bitmap", "connection count", "overflow"}

// packedCensus attributes every byte of every packed record s stores to the
// field that spells it, walking each record with the reader and in the
// order DecodePackedRecord uses; overflow counts both chain heads and the
// overflow records they name. It returns the bytes per field
// (censusFields' order) and the records' total length.
func packedCensus(t *testing.T, s *Store) (bytes []int, total int) {
	t.Helper()
	const (
		deltas = iota
		xy
		z
		eHigh
		eLow
		id
		parent
		children
		wings
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
		charge := func(field int) {
			bytes[field] += len(rec) - r.Len() - read
			read = len(rec) - r.Len()
		}
		r.Uvarint()
		charge(id)
		flags := r.U16()
		charge(bitmap)
		head := noOverflow
		if flags&pkOverflow != 0 {
			head = int64(r.U64())
			charge(overflow)
		}
		dyBits := [5]uint16{pkXDyadic, pkYDyadic, pkZDyadic, pkELowDyadic, pkEHighDyadic}
		for i, field := range []int{xy, xy, z, eLow, eHigh} {
			if !(i == 3 && flags&pkELowZero != 0) && !(i == 4 && flags&pkEHighInf != 0) {
				r.Float(flags&dyBits[i] != 0)
			}
			charge(field)
		}
		for i, field := range []int{parent, children, children, wings, wings} {
			if flags&(1<<i) != 0 {
				r.Varint()
			}
			charge(field)
		}
		r.Uvarint()
		charge(count)
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
	return bytes, total
}

// TestPackedRecordCensus is ROADMAP item 13's census as a test: at 65²
// every byte of every packed record is charged to one field, the fields
// add up to the records' bytes, and those fit the heap's data pages (the
// difference is page and slot overhead). The log prints the table in
// bytes per terrain point, the unit of store_data_bytes_per_point. What
// a format without the four links would save is the children and wings
// rows.
func TestPackedRecordCensus(t *testing.T) {
	const size = 65
	ds := buildDatasetOnly(t, size, "highland")
	s, err := BuildStore(ds, StorePools{Layout: LayoutPacked})
	if err != nil {
		t.Fatal(err)
	}
	bytes, total := packedCensus(t, s)
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
	for i, b := range bytes {
		if b == 0 && censusFields[i] != "overflow" {
			t.Errorf("no byte charged to %s", censusFields[i])
		}
	}
}

// FuzzPackedRecordDecode feeds arbitrary bytes to the packed decoder:
// it must never panic, never allocate unboundedly, and classify every
// failure as wire.ErrCorrupt. Valid decodes must satisfy the encoding's
// invariants (inline list within the declared total, sorted deltas
// reconstructed consistently).
func FuzzPackedRecordDecode(f *testing.F) {
	for _, n := range packedFixtures() {
		f.Add(EncodePackedRecord(&n.Node, n.links, noOverflow, len(n.Conn), nil))
		if len(n.Conn) > 1 {
			f.Add(EncodePackedRecord(&n.Node, n.links, 99, 1, nil))
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0x80})
	f.Add([]byte{0x00, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		var arena connArena
		n, _, total, ref, err := DecodePackedRecord(data, &arena)
		if err != nil {
			if !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("error %v does not wrap wire.ErrCorrupt", err)
			}
			return
		}
		if len(n.Conn) > total {
			t.Fatalf("decoded %d inline IDs but total is %d", len(n.Conn), total)
		}
		if ref == noOverflow && len(n.Conn) != total {
			t.Fatalf("no overflow but %d of %d IDs inline", len(n.Conn), total)
		}
	})
}
