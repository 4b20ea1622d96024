package heapfile

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dmesh/internal/storage/pager"
)

// VarFile stores variable-length records in slotted pages. Unlike File,
// whose fixed record size makes RID -> page arithmetic, a VarFile RID
// directly encodes (page, slot), so records of any length up to
// MaxVarRecord are addressed in one page read. The packed Direct Mesh
// layout uses it to keep each node's whole compressed connection list —
// and, for the rare lists that exceed a page, the overflow records —
// physically adjacent to the owning record.
//
// Page 0 is the header; data pages are slotted:
//
//	[2B slot count][2B free offset][records growing up ...
//	                ... free space ...][slot dir growing down]
//
// with one 4-byte directory entry (2B offset, 2B length) per record at
// the page tail. Records never move once appended, so RIDs are stable.
const (
	varMagic = 0x56484541 // "VHEA"
	// varPageHeader is the per-data-page bookkeeping: slot count + free
	// offset.
	varPageHeader = 4
	// varSlotSize is one slot-directory entry: record offset + length.
	varSlotSize = 4
	// MaxVarRecord is the largest record a VarFile accepts: one page
	// minus the page header and the record's own directory entry.
	MaxVarRecord = pager.PageSize - varPageHeader - varSlotSize
)

// VarRecordsPerPage estimates how many variable records of the given
// average byte length fit one slotted page, accounting for the page
// header and each record's slot-directory entry. Cost models use it as
// the density fallback when a file has no realized data pages to
// measure.
func VarRecordsPerPage(avgLen float64) float64 {
	return float64(pager.PageSize-varPageHeader) / (avgLen + varSlotSize)
}

// VarRID packs (page, slot) into the int64 record ID of a VarFile.
func VarRID(page pager.PageID, slot int) RID {
	return RID(int64(page)<<16 | int64(slot))
}

// split unpacks a VarFile RID.
func (rid RID) split() (pager.PageID, int) {
	return pager.PageID(rid >> 16), int(rid & 0xffff)
}

// VarFile is a heap file of variable-length records in slotted pages.
type VarFile struct {
	p   *pager.Pager
	num int64
	// last is the data page Append is currently filling (0 = none yet).
	last pager.PageID
}

// CreateVar initializes a new variable-record heap file on an empty pager.
func CreateVar(p *pager.Pager) (*VarFile, error) {
	if p.NumPages() != 0 {
		return nil, errors.New("heapfile: CreateVar requires an empty pager")
	}
	fr, err := p.Allocate()
	if err != nil {
		return nil, err
	}
	if fr.ID() != headerPage {
		fr.Unpin()
		return nil, fmt.Errorf("heapfile: header allocated as page %d", fr.ID())
	}
	f := &VarFile{p: p}
	f.writeHeader(fr.Data())
	fr.MarkDirty()
	fr.Unpin()
	return f, nil
}

// OpenVar attaches to an existing variable-record heap file.
func OpenVar(p *pager.Pager) (*VarFile, error) {
	fr, err := p.Get(headerPage)
	if err != nil {
		return nil, fmt.Errorf("heapfile: open: %w", err)
	}
	defer fr.Unpin()
	d := fr.Data()
	if binary.LittleEndian.Uint32(d[0:]) != varMagic {
		return nil, errors.New("heapfile: bad var-file magic")
	}
	num := int64(binary.LittleEndian.Uint64(d[8:]))
	last := pager.PageID(binary.LittleEndian.Uint64(d[16:]))
	if num < 0 || last >= p.NumPages() {
		return nil, fmt.Errorf("heapfile: corrupt var-file header (%d records, last page %d)", num, last)
	}
	return &VarFile{p: p, num: num, last: last}, nil
}

func (f *VarFile) writeHeader(d []byte) {
	binary.LittleEndian.PutUint32(d[0:], varMagic)
	binary.LittleEndian.PutUint32(d[4:], 0)
	binary.LittleEndian.PutUint64(d[8:], uint64(f.num))
	binary.LittleEndian.PutUint64(d[16:], uint64(f.last))
}

// On returns a read-only copy of the file that reads through p, a view of
// the file's own pager (Pager.WithSession), so that its page accesses are
// also attributed to the view's session. Do not Append through it.
func (f *VarFile) On(p *pager.Pager) VarFile {
	cp := *f
	cp.p = p
	return cp
}

// NumRecords returns the number of records appended so far.
func (f *VarFile) NumRecords() int64 { return f.num }

// DataPages returns the number of slotted data pages in use.
func (f *VarFile) DataPages() int64 {
	if f.last == 0 {
		return 0
	}
	return int64(f.last)
}

// Append stores rec (1..MaxVarRecord bytes) and returns its RID. Records
// fill the current page until it cannot hold the next one, then move to a
// fresh page — appending related records consecutively therefore
// co-locates them on the same or adjacent pages.
func (f *VarFile) Append(rec []byte) (RID, error) {
	if len(rec) == 0 || len(rec) > MaxVarRecord {
		return 0, fmt.Errorf("heapfile: var record length %d out of range (0, %d]", len(rec), MaxVarRecord)
	}
	var fr pager.Frame
	var err error
	if f.last != 0 {
		fr, err = f.p.Get(f.last)
		if err != nil {
			return 0, err
		}
		d := fr.Data()
		count := int(binary.LittleEndian.Uint16(d[0:]))
		freeOff := int(binary.LittleEndian.Uint16(d[2:]))
		if freeOff+len(rec) > pager.PageSize-varSlotSize*(count+1) || count+1 > 0xffff {
			fr.Unpin()
		}
	}
	if !fr.Pinned() {
		fr, err = f.p.Allocate()
		if err != nil {
			return 0, err
		}
		f.last = fr.ID()
		d := fr.Data()
		binary.LittleEndian.PutUint16(d[0:], 0)
		binary.LittleEndian.PutUint16(d[2:], varPageHeader)
	}
	d := fr.Data()
	count := int(binary.LittleEndian.Uint16(d[0:]))
	freeOff := int(binary.LittleEndian.Uint16(d[2:]))
	copy(d[freeOff:], rec)
	dirOff := pager.PageSize - varSlotSize*(count+1)
	binary.LittleEndian.PutUint16(d[dirOff:], uint16(freeOff))
	binary.LittleEndian.PutUint16(d[dirOff+2:], uint16(len(rec)))
	binary.LittleEndian.PutUint16(d[0:], uint16(count+1))
	binary.LittleEndian.PutUint16(d[2:], uint16(freeOff+len(rec)))
	rid := VarRID(fr.ID(), count)
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

// slotEntry validates and returns the slot's record bounds. Corrupt
// directories (a slot count no page can hold, offsets into the header,
// past the directory, or crossing it) surface as errors rather than
// out-of-range panics.
func slotEntry(d []byte, slot, count int) (off, length int, err error) {
	if count > (pager.PageSize-varPageHeader)/varSlotSize {
		return 0, 0, fmt.Errorf("heapfile: corrupt slot count %d", count)
	}
	dirOff := pager.PageSize - varSlotSize*(slot+1)
	off = int(binary.LittleEndian.Uint16(d[dirOff:]))
	length = int(binary.LittleEndian.Uint16(d[dirOff+2:]))
	if off < varPageHeader || off+length > pager.PageSize-varSlotSize*count {
		return 0, 0, fmt.Errorf("heapfile: corrupt slot %d (off %d, len %d)", slot, off, length)
	}
	return off, length, nil
}

// VarCursor reads the records of one VarFile in place: it keeps the data
// page of the last record pinned, so a run of RIDs that stay on one page
// costs one Pager.Get however long it is, and hands out the record as a
// window of the page itself rather than a copy. Moving to another page
// unpins the old one first, so a cursor holds at most one pin and the
// pool sees exactly the page sequence per-record reads would have shown
// it with consecutive repeats collapsed — never more disk accesses.
//
// A cursor belongs to one goroutine. Get one from VarFile.Cursor (the
// zero value holds nothing and can only be Released), and Release it when
// the run ends — also after an error — or the pinned page blocks
// Pager.DropCache.
type VarCursor struct {
	f  *VarFile
	fr pager.Frame // the pinned data page; not Pinned between runs
}

// Cursor returns a cursor over f with nothing pinned. Use a session view
// (WithSession) to have the cursor's page reads attributed.
func (f *VarFile) Cursor() VarCursor { return VarCursor{f: f} }

// Record returns the record at rid as a slice of the pinned page: valid
// until the next Record or Release, and not to be modified. A corrupt
// slot directory or an unreadable page is an error; the cursor stays
// usable (and still needs its Release).
func (c *VarCursor) Record(rid RID) ([]byte, error) {
	page, slot := rid.split()
	if page < 1 || page > c.f.last || slot < 0 {
		return nil, fmt.Errorf("%w: var rid %d", ErrNoRecord, rid)
	}
	if !c.fr.Pinned() || c.fr.ID() != page {
		c.Release()
		fr, err := c.f.p.Get(page)
		if err != nil {
			return nil, err
		}
		c.fr = fr
	}
	d := c.fr.Data()
	count := int(binary.LittleEndian.Uint16(d[0:]))
	if slot >= count {
		return nil, fmt.Errorf("%w: var rid %d (page %d has %d slots)", ErrNoRecord, rid, page, count)
	}
	off, length, err := slotEntry(d, slot, count)
	if err != nil {
		return nil, err
	}
	return d[off : off+length : off+length], nil
}

// Release unpins the cursor's page, if it holds one. The cursor can be
// used again afterwards.
func (c *VarCursor) Release() {
	if c.fr.Pinned() {
		c.fr.Unpin()
	}
}

// Scan calls fn for every record in (page, slot) order, sharing one
// buffer across calls; fn must not retain it. Scanning stops early if fn
// returns false.
func (f *VarFile) Scan(fn func(rid RID, rec []byte) bool) error {
	var buf []byte
	for page := pager.PageID(1); page <= f.last; page++ {
		fr, err := f.p.Get(page)
		if err != nil {
			return err
		}
		d := fr.Data()
		count := int(binary.LittleEndian.Uint16(d[0:]))
		for slot := 0; slot < count; slot++ {
			off, length, err := slotEntry(d, slot, count)
			if err != nil {
				fr.Unpin()
				return err
			}
			if cap(buf) < length {
				buf = make([]byte, length)
			}
			buf = buf[:length]
			copy(buf, d[off:off+length])
			if !fn(VarRID(page, slot), buf) {
				fr.Unpin()
				return nil
			}
		}
		fr.Unpin()
	}
	return nil
}
