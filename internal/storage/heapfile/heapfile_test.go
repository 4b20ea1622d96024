package heapfile

import (
	"encoding/binary"
	"errors"
	"testing"

	"dmesh/internal/storage/pager"
)

func newFile(t *testing.T, recSize int) (*File, *pager.Pager) {
	t.Helper()
	p := pager.New(pager.NewMemBackend(), 16)
	f, err := Create(p, recSize)
	if err != nil {
		t.Fatal(err)
	}
	return f, p
}

func TestCreateValidation(t *testing.T) {
	p := pager.New(pager.NewMemBackend(), 16)
	if _, err := Create(p, 0); err == nil {
		t.Error("zero record size must fail")
	}
	if _, err := Create(p, pager.PageSize); err == nil {
		t.Error("record larger than page payload must fail")
	}
	if _, err := Create(p, 16); err != nil {
		t.Fatal(err)
	}
	// Second create on the same pager must fail (non-empty).
	if _, err := Create(p, 16); err == nil {
		t.Error("Create on non-empty pager must fail")
	}
}

func TestAppendRead(t *testing.T) {
	f, _ := newFile(t, 8)
	const n = 100
	for i := 0; i < n; i++ {
		rec := make([]byte, 8)
		binary.LittleEndian.PutUint64(rec, uint64(i*7))
		rid, err := f.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		if rid != RID(i) {
			t.Fatalf("rid = %d, want %d", rid, i)
		}
	}
	if f.NumRecords() != n {
		t.Fatalf("NumRecords = %d", f.NumRecords())
	}
	buf := make([]byte, 8)
	for i := 0; i < n; i++ {
		if err := f.Read(RID(i), buf); err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint64(buf); got != uint64(i*7) {
			t.Fatalf("record %d = %d, want %d", i, got, i*7)
		}
	}
}

func TestAppendWrongSize(t *testing.T) {
	f, _ := newFile(t, 8)
	if _, err := f.Append(make([]byte, 7)); err == nil {
		t.Error("short record must fail")
	}
	if _, err := f.Append(make([]byte, 9)); err == nil {
		t.Error("long record must fail")
	}
}

func TestReadOutOfRange(t *testing.T) {
	f, _ := newFile(t, 8)
	buf := make([]byte, 8)
	if err := f.Read(0, buf); !errors.Is(err, ErrNoRecord) {
		t.Errorf("read empty file: %v", err)
	}
	f.Append(make([]byte, 8))
	if err := f.Read(-1, buf); !errors.Is(err, ErrNoRecord) {
		t.Errorf("negative rid: %v", err)
	}
	if err := f.Read(1, buf); !errors.Is(err, ErrNoRecord) {
		t.Errorf("rid past end: %v", err)
	}
	if err := f.Read(0, make([]byte, 4)); err == nil {
		t.Error("short buffer must fail")
	}
}

func TestRecordsSpanPages(t *testing.T) {
	// 1000-byte records: 4 per page.
	f, p := newFile(t, 1000)
	if f.PerPage() != 4 {
		t.Fatalf("PerPage = %d, want 4", f.PerPage())
	}
	for i := 0; i < 9; i++ {
		rec := make([]byte, 1000)
		rec[0] = byte(i)
		if _, err := f.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Header + 3 data pages.
	if p.NumPages() != 4 {
		t.Fatalf("NumPages = %d, want 4", p.NumPages())
	}
	buf := make([]byte, 1000)
	for i := 0; i < 9; i++ {
		if err := f.Read(RID(i), buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i) {
			t.Fatalf("record %d corrupted", i)
		}
	}
}

func TestPersistenceAcrossOpen(t *testing.T) {
	p := pager.New(pager.NewMemBackend(), 16)
	f, err := Create(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, 16)
	copy(rec, "persistent")
	if _, err := f.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := p.DropCache(); err != nil {
		t.Fatal(err)
	}

	f2, err := Open(p)
	if err != nil {
		t.Fatal(err)
	}
	if f2.NumRecords() != 1 || f2.recSize != 16 {
		t.Fatalf("reopened: n=%d size=%d", f2.NumRecords(), f2.recSize)
	}
	buf := make([]byte, 16)
	if err := f2.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:10]) != "persistent" {
		t.Fatalf("read back %q", buf)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	p := pager.New(pager.NewMemBackend(), 16)
	fr, _ := p.Allocate() // page full of zeros, wrong magic
	fr.Unpin()
	if _, err := Open(p); err == nil {
		t.Fatal("Open must reject bad magic")
	}
}

func TestScan(t *testing.T) {
	f, _ := newFile(t, 8)
	for i := 0; i < 10; i++ {
		rec := make([]byte, 8)
		rec[0] = byte(i)
		f.Append(rec)
	}
	var seen []byte
	err := f.Scan(func(rid RID, rec []byte) bool {
		seen = append(seen, rec[0])
		return rec[0] < 5 // stop early
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 7 { // 0..5 pass, 5 stops... records 0-5 appended + stop check
		// records 0,1,2,3,4 return true; record 5 returns false -> 6 seen
		if len(seen) != 6 {
			t.Fatalf("scan visited %d records: %v", len(seen), seen)
		}
	}
}

func TestReadCostIsOnePage(t *testing.T) {
	// A cold point read must cost exactly one disk access — the property
	// the whole benchmark methodology rests on.
	f, p := newFile(t, 64)
	for i := 0; i < 200; i++ {
		f.Append(make([]byte, 64))
	}
	if err := p.DropCache(); err != nil {
		t.Fatal(err)
	}
	p.ResetStats()
	buf := make([]byte, 64)
	if err := f.Read(100, buf); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Reads != 1 {
		t.Fatalf("cold record read cost %d disk accesses, want 1", s.Reads)
	}
}
