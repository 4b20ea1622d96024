// Package heapfile stores fixed-size records in pages, addressed by record
// ID (RID). Terrain point records are laid out through this package; the
// physical append order is chosen by the caller (Hilbert order in the
// benchmark datasets) so that "(x, y) clustering is preserved as much as
// possible", as Section 6 of the paper requires.
package heapfile

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dmesh/internal/storage/pager"
)

// RID identifies a record within one heap file: sequential insert order.
type RID int64

const (
	magic      = 0x48454150 // "HEAP"
	headerPage = pager.PageID(0)
	// Data pages reserve a 2-byte record count at the front.
	pageHeader = 2
)

// ErrNoRecord is returned when a RID is out of range.
var ErrNoRecord = errors.New("heapfile: no such record")

// File is a heap file of fixed-size records.
type File struct {
	p       *pager.Pager
	recSize int
	perPage int
	num     int64
}

// Create initializes a new heap file of recSize-byte records on an empty
// pager.
func Create(p *pager.Pager, recSize int) (*File, error) {
	if recSize <= 0 || recSize > pager.PageSize-pageHeader {
		return nil, fmt.Errorf("heapfile: record size %d out of range (0, %d]", recSize, pager.PageSize-pageHeader)
	}
	if p.NumPages() != 0 {
		return nil, errors.New("heapfile: Create requires an empty pager")
	}
	fr, err := p.Allocate()
	if err != nil {
		return nil, err
	}
	if fr.ID() != headerPage {
		fr.Unpin()
		return nil, fmt.Errorf("heapfile: header allocated as page %d", fr.ID())
	}
	f := &File{p: p, recSize: recSize, perPage: (pager.PageSize - pageHeader) / recSize}
	f.writeHeader(fr.Data())
	fr.MarkDirty()
	fr.Unpin()
	return f, nil
}

// Open attaches to an existing heap file.
func Open(p *pager.Pager) (*File, error) {
	fr, err := p.Get(headerPage)
	if err != nil {
		return nil, fmt.Errorf("heapfile: open: %w", err)
	}
	defer fr.Unpin()
	d := fr.Data()
	if binary.LittleEndian.Uint32(d[0:]) != magic {
		return nil, errors.New("heapfile: bad magic")
	}
	recSize := int(binary.LittleEndian.Uint32(d[4:]))
	num := int64(binary.LittleEndian.Uint64(d[8:]))
	if recSize <= 0 || recSize > pager.PageSize-pageHeader {
		return nil, fmt.Errorf("heapfile: corrupt record size %d", recSize)
	}
	return &File{p: p, recSize: recSize, perPage: (pager.PageSize - pageHeader) / recSize, num: num}, nil
}

func (f *File) writeHeader(d []byte) {
	binary.LittleEndian.PutUint32(d[0:], magic)
	binary.LittleEndian.PutUint32(d[4:], uint32(f.recSize))
	binary.LittleEndian.PutUint64(d[8:], uint64(f.num))
}

// On returns a read-only copy of the file that reads through p, a view of
// the file's own pager (Pager.WithSession), so that its page accesses are
// also attributed to the view's session. Do not Append through it.
func (f *File) On(p *pager.Pager) File {
	cp := *f
	cp.p = p
	return cp
}

// RecordSize returns the fixed record size in bytes.
func (f *File) RecordSize() int { return f.recSize }

// NumRecords returns the number of records appended so far.
func (f *File) NumRecords() int64 { return f.num }

// PerPage returns how many records fit in one page.
func (f *File) PerPage() int { return f.perPage }

// rid -> (page, slot)
func (f *File) locate(rid RID) (pager.PageID, int) {
	return pager.PageID(1 + int64(rid)/int64(f.perPage)), int(int64(rid) % int64(f.perPage))
}

// Append stores rec (len RecordSize) and returns its RID. Records fill
// pages sequentially, so appending in a spatially clustered order yields a
// spatially clustered file.
func (f *File) Append(rec []byte) (RID, error) {
	if len(rec) != f.recSize {
		return 0, fmt.Errorf("heapfile: record length %d, want %d", len(rec), f.recSize)
	}
	rid := RID(f.num)
	page, slot := f.locate(rid)
	var fr pager.Frame
	var err error
	if slot == 0 {
		fr, err = f.p.Allocate()
		if err != nil {
			return 0, err
		}
		if fr.ID() != page {
			fr.Unpin()
			return 0, fmt.Errorf("heapfile: expected page %d, allocated %d", page, fr.ID())
		}
	} else {
		fr, err = f.p.Get(page)
		if err != nil {
			return 0, err
		}
	}
	d := fr.Data()
	copy(d[pageHeader+slot*f.recSize:], rec)
	binary.LittleEndian.PutUint16(d[0:], uint16(slot+1))
	fr.MarkDirty()
	fr.Unpin()

	f.num++
	hdr, err := f.p.Get(headerPage)
	if err != nil {
		return 0, err
	}
	f.writeHeader(hdr.Data())
	hdr.MarkDirty()
	hdr.Unpin()
	return rid, nil
}

// Read copies record rid into buf (len >= RecordSize).
func (f *File) Read(rid RID, buf []byte) error {
	if rid < 0 || int64(rid) >= f.num {
		return fmt.Errorf("%w: rid %d of %d", ErrNoRecord, rid, f.num)
	}
	if len(buf) < f.recSize {
		return fmt.Errorf("heapfile: buffer %d smaller than record %d", len(buf), f.recSize)
	}
	page, slot := f.locate(rid)
	fr, err := f.p.Get(page)
	if err != nil {
		return err
	}
	copy(buf[:f.recSize], fr.Data()[pageHeader+slot*f.recSize:])
	fr.Unpin()
	return nil
}

// Scan calls fn for every record in RID order, sharing one buffer across
// calls; fn must not retain it. Scanning stops early if fn returns false.
func (f *File) Scan(fn func(rid RID, rec []byte) bool) error {
	buf := make([]byte, f.recSize)
	for rid := RID(0); int64(rid) < f.num; rid++ {
		if err := f.Read(rid, buf); err != nil {
			return err
		}
		if !fn(rid, buf) {
			return nil
		}
	}
	return nil
}
