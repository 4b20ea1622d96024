package heapfile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"dmesh/internal/storage/pager"
)

func newVarFile(t *testing.T) (*VarFile, pager.Backend) {
	t.Helper()
	b := pager.NewMemBackend()
	f, err := CreateVar(pager.New(b, 16))
	if err != nil {
		t.Fatal(err)
	}
	return f, b
}

// readVar reads one record through a fresh cursor and copies it out.
func readVar(f *VarFile, rid RID) ([]byte, error) {
	c := f.Cursor()
	defer c.Release()
	rec, err := c.Record(rid)
	return append([]byte(nil), rec...), err
}

// varRec builds a deterministic record of the given length tagged with i.
func varRec(i, length int) []byte {
	rec := make([]byte, length)
	for j := range rec {
		rec[j] = byte(i + j*31)
	}
	return rec
}

func TestVarFileRoundTrip(t *testing.T) {
	f, _ := newVarFile(t)
	lengths := []int{1, 7, 100, 512, 2000, MaxVarRecord, 3, MaxVarRecord - 1, 64}
	rids := make([]RID, len(lengths))
	for i, l := range lengths {
		rid, err := f.Append(varRec(i, l))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		rids[i] = rid
	}
	if f.NumRecords() != int64(len(lengths)) {
		t.Fatalf("NumRecords = %d, want %d", f.NumRecords(), len(lengths))
	}
	for i, rid := range rids {
		got, err := readVar(f, rid)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, varRec(i, lengths[i])) {
			t.Fatalf("record %d (len %d) mismatch", i, lengths[i])
		}
	}
}

func TestVarFileCoLocation(t *testing.T) {
	f, _ := newVarFile(t)
	// Records appended consecutively land on the same page until it fills.
	var rids []RID
	for i := 0; i < 10; i++ {
		rid, err := f.Append(varRec(i, 100))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	page0, _ := rids[0].split()
	for i, rid := range rids {
		if p, s := rid.split(); p != page0 || s != i {
			t.Fatalf("record %d on page %d slot %d, want page %d slot %d", i, p, s, page0, i)
		}
	}
}

func TestVarFilePageSpill(t *testing.T) {
	f, _ := newVarFile(t)
	// Two near-page-size records cannot share a page.
	r1, err := f.Append(varRec(1, MaxVarRecord))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := f.Append(varRec(2, MaxVarRecord))
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := r1.split()
	p2, _ := r2.split()
	if p2 != p1+1 {
		t.Fatalf("full records on pages %d, %d: want adjacent", p1, p2)
	}
	if f.DataPages() != 2 {
		t.Fatalf("DataPages = %d, want 2", f.DataPages())
	}
}

func TestVarFileRejectsBadLengths(t *testing.T) {
	f, _ := newVarFile(t)
	if _, err := f.Append(nil); err == nil {
		t.Fatal("empty record must be rejected")
	}
	if _, err := f.Append(make([]byte, MaxVarRecord+1)); err == nil {
		t.Fatal("oversized record must be rejected")
	}
}

func TestVarFileBadRID(t *testing.T) {
	f, _ := newVarFile(t)
	rid, err := f.Append(varRec(0, 32))
	if err != nil {
		t.Fatal(err)
	}
	page, _ := rid.split()
	for _, bad := range []RID{VarRID(page, 1), VarRID(page+1, 0), VarRID(0, 0), -1} {
		if _, err := readVar(f, bad); err == nil {
			t.Fatalf("rid %d must fail", bad)
		}
	}
}

func TestVarFileReopen(t *testing.T) {
	b := pager.NewMemBackend()
	p := pager.New(b, 16)
	f, err := CreateVar(p)
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	for i := 0; i < 50; i++ {
		rid, err := f.Append(varRec(i, 50+i*7))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	g, err := OpenVar(pager.New(b, 16))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumRecords() != f.NumRecords() || g.DataPages() != f.DataPages() {
		t.Fatalf("reopened: %d records / %d pages, want %d / %d",
			g.NumRecords(), g.DataPages(), f.NumRecords(), f.DataPages())
	}
	for i, rid := range rids {
		got, err := readVar(g, rid)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, varRec(i, 50+i*7)) {
			t.Fatalf("record %d mismatch after reopen", i)
		}
	}
	// Appending after reopen keeps filling the last page.
	rid, err := g.Append(varRec(99, 10))
	if err != nil {
		t.Fatal(err)
	}
	got, err := readVar(g, rid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, varRec(99, 10)) {
		t.Fatal("append after reopen mismatch")
	}
}

func TestVarFileOpenRejectsFixedFile(t *testing.T) {
	b := pager.NewMemBackend()
	p := pager.New(b, 8)
	if _, err := Create(p, 64); err != nil {
		t.Fatal(err)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenVar(pager.New(b, 8)); err == nil {
		t.Fatal("OpenVar must reject a fixed-record heap file")
	}
	// And vice versa.
	b2 := pager.NewMemBackend()
	p2 := pager.New(b2, 8)
	if _, err := CreateVar(p2); err != nil {
		t.Fatal(err)
	}
	if err := p2.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(pager.New(b2, 8)); err == nil {
		t.Fatal("Open must reject a var-record heap file")
	}
}

func TestVarFileScan(t *testing.T) {
	f, _ := newVarFile(t)
	const n = 200
	for i := 0; i < n; i++ {
		if _, err := f.Append(varRec(i, 20+(i%50)*13)); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	err := f.Scan(func(rid RID, rec []byte) bool {
		if !bytes.Equal(rec, varRec(i, 20+(i%50)*13)) {
			t.Fatalf("scan record %d mismatch", i)
		}
		i++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != n {
		t.Fatalf("scanned %d records, want %d", i, n)
	}
	// Early stop.
	i = 0
	if err := f.Scan(func(RID, []byte) bool { i++; return i < 5 }); err != nil {
		t.Fatal(err)
	}
	if i != 5 {
		t.Fatalf("early stop after %d records, want 5", i)
	}
}

func TestVarFileCorruptSlotDirectory(t *testing.T) {
	b := pager.NewMemBackend()
	p := pager.New(b, 8)
	f, err := CreateVar(p)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := f.Append(varRec(0, 64))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Smash the slot's length so it crosses the directory.
	page, _ := rid.split()
	raw := make([]byte, pager.PageSize)
	if err := b.ReadPage(page, raw); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(raw[pager.PageSize-varSlotSize+2:], 0xffff)
	if err := b.WritePage(page, raw); err != nil {
		t.Fatal(err)
	}
	g, err := OpenVar(pager.New(b, 8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readVar(g, rid); err == nil {
		t.Fatal("corrupt slot directory must error, not panic")
	}
	// A slot count no page can hold must not index the directory either.
	binary.LittleEndian.PutUint16(raw[0:], 0xffff)
	if err := b.WritePage(page, raw); err != nil {
		t.Fatal(err)
	}
	h, err := OpenVar(pager.New(b, 8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readVar(h, VarRID(page, 5000)); err == nil {
		t.Fatal("corrupt slot count must error, not panic")
	}
	if err := g.Scan(func(RID, []byte) bool { return true }); err == nil {
		t.Fatal("corrupt slot directory must fail the scan")
	}
}

func TestVarFileSessionAttribution(t *testing.T) {
	b := pager.NewMemBackend()
	p := pager.New(b, 4)
	f, err := CreateVar(p)
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	for i := 0; i < 40; i++ {
		rid, err := f.Append(varRec(i, 400))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := p.DropCache(); err != nil {
		t.Fatal(err)
	}
	p.ResetStats()
	s := pager.NewSession()
	view := f.On(p.WithSession(s))
	for _, rid := range rids {
		if _, err := readVar(&view, rid); err != nil {
			t.Fatal(err)
		}
	}
	if s.Reads() == 0 {
		t.Fatal("session saw no reads")
	}
	if s.Reads() != p.Stats().Reads {
		t.Fatalf("session reads %d != pager reads %d", s.Reads(), p.Stats().Reads)
	}
}

func TestVarRIDPacking(t *testing.T) {
	for _, tc := range []struct {
		page pager.PageID
		slot int
	}{{1, 0}, {1, 5}, {1000, 65535}, {1 << 30, 7}} {
		rid := VarRID(tc.page, tc.slot)
		p, s := rid.split()
		if p != tc.page || s != tc.slot {
			t.Fatalf("VarRID(%d,%d) round-trips to (%d,%d)", tc.page, tc.slot, p, s)
		}
	}
	if fmt.Sprint(VarRID(1, 0)) != "65536" {
		t.Fatalf("unexpected RID encoding: %v", VarRID(1, 0))
	}
}

// TestVarCursorHoldsOnePin: a cursor keeps the page of its last record
// pinned — a second record on that page is no pager access at all — holds
// at most that one pin however many pages it has walked (the smallest pool
// suffices), and gives it back on Release, after which it can be reused.
func TestVarCursorHoldsOnePin(t *testing.T) {
	b := pager.NewMemBackend()
	p := pager.New(b, 2) // the pager's minimum pool
	f, err := CreateVar(p)
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	for i := 0; i < 200; i++ {
		rid, err := f.Append(varRec(i, 300))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := p.DropCache(); err != nil {
		t.Fatal(err)
	}
	p.ResetStats()
	c := f.Cursor()
	for i, rid := range rids {
		rec, err := c.Record(rid)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec, varRec(i, 300)) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	st := p.Stats()
	if pages := uint64(f.DataPages()); st.Reads != pages || st.Hits != 0 {
		t.Fatalf("a sorted run over %d pages cost %d reads and %d pool hits, want %d and 0", pages, st.Reads, st.Hits, pages)
	}
	if err := p.DropCache(); err == nil {
		t.Fatal("DropCache succeeded under a live cursor: it holds no pin")
	}
	c.Release()
	c.Release() // idempotent
	if err := p.DropCache(); err != nil {
		t.Fatalf("DropCache after Release: %v", err)
	}
	if st := p.Stats(); st.UnpinErrors != 0 {
		t.Fatalf("%d unpin errors", st.UnpinErrors)
	}
	if rec, err := c.Record(rids[7]); err != nil || !bytes.Equal(rec, varRec(7, 300)) {
		t.Fatalf("cursor reuse after Release: %v", err)
	}
	c.Release()
}

// TestVarCursorAllocsPerPage: a warm sorted run allocates nothing, per
// record or per page touched (the pager's pin is a value).
func TestVarCursorAllocsPerPage(t *testing.T) {
	f, _ := newVarFile(t)
	var rids []RID
	for i := 0; i < 1000; i++ {
		rid, err := f.Append(varRec(i, 40))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	pages := float64(f.DataPages())
	if pages > 16 {
		t.Fatalf("%v pages: the run must stay inside newVarFile's 16-frame pool to be warm", pages)
	}
	allocs := testing.AllocsPerRun(10, func() {
		c := f.Cursor()
		for _, rid := range rids {
			if _, err := c.Record(rid); err != nil {
				panic(err)
			}
		}
		c.Release()
	})
	if allocs != 0 {
		t.Fatalf("1000 records on %v pages allocated %v objects, want none", pages, allocs)
	}
}
