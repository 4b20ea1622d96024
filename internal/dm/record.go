package dm

import (
	"encoding/binary"
	"math"

	"dmesh/internal/geom"
	"dmesh/internal/storage/heapfile"
)

// On-disk Direct Mesh record: the node and its connection list, in one
// of two physical encodings:
//
//   - Fixed records (LayoutSTR): exactly the paper's node tuple (ID, x,
//     y, z, e_low, e_high, parent, child1, child2, wing1, wing2), whose
//     size the paper's figures depend on, then ConnInline inline slots.
//     Lists beyond that chain through fixed-size overflow records in a
//     separate heap file. The paper reports an average similar-LOD list
//     length of 12, so ConnInline=12 makes overflow uncommon — but the
//     overflow file has no locality to the owners, which `dmbench -fig
//     dabreakdown` shows as the largest DA phase.
//
//   - Packed records (LayoutPacked, packed.go): only the fields a query
//     reads, compressed and variable length, so the whole list is inline
//     unless its encoding cannot fit one slotted page; the rest spills
//     into raw variable overflow records co-allocated immediately before
//     the owner in the same file.
const (
	// dmFixed is the fixed (non-connection) part of the record.
	dmFixed = 8 + 24 + 8 + 8 + 5*8
	// recHeaderSize adds the connection count and the overflow chain head.
	recHeaderSize = dmFixed + 2 + 8
	// ConnInline is how many connection IDs fit in the fixed main record.
	ConnInline = 12
	// RecordSize is the fixed main-record size.
	RecordSize = recHeaderSize + ConnInline*8

	// OverflowFanout is how many IDs one fixed overflow record holds.
	OverflowFanout = 32
	// OverflowRecordSize is the fixed overflow-record size: a next-record
	// reference, a count, and the IDs.
	OverflowRecordSize = 8 + 2 + OverflowFanout*8

	// varOverflowFanout is how many IDs one variable overflow record of a
	// packed store holds at most (bounded by the slotted page).
	varOverflowFanout = (heapfile.MaxVarRecord - 10) / 8

	// noOverflow marks the end of an overflow chain.
	noOverflow = int64(-1)
)

// encodeRecord writes n's fixed-size record into buf (len >= RecordSize):
// up to ConnInline IDs inline, the rest behind overflowRef; links are the
// node's Child1, Child2, Wing1, Wing2 (Dataset.links). Unlike the PM
// record, the DM record omits the raw error, footprint MBR, and anything
// derivable from other rows: Direct Mesh queries never chase the tree.
func encodeRecord(n *Node, links [4]int64, overflowRef int64, buf []byte) {
	inline := min(len(n.Conn), ConnInline)
	le := binary.LittleEndian
	off := 0
	putI := func(v int64) { le.PutUint64(buf[off:], uint64(v)); off += 8 }
	putF := func(v float64) { le.PutUint64(buf[off:], math.Float64bits(v)); off += 8 }
	putI(n.ID)
	putF(n.Pos.X)
	putF(n.Pos.Y)
	putF(n.Pos.Z)
	putF(n.ELow)
	putF(n.EHigh)
	putI(n.Parent)
	for _, r := range links {
		putI(r)
	}
	le.PutUint16(buf[off:], uint16(len(n.Conn)))
	le.PutUint64(buf[off+2:], uint64(overflowRef))
	off += 10
	for i := 0; i < inline; i++ {
		le.PutUint64(buf[off+i*8:], uint64(n.Conn[i]))
	}
}

// decodeRecordHeader decodes everything except overflowed connection IDs,
// returning the node (with the inline portion of Conn), the links it read
// past Parent (Child1, Child2, Wing1, Wing2: no Node field holds them), the
// total connection count, and the overflow chain head. The buffer length
// is the record: its inline capacity is (len(buf)-recHeaderSize)/8,
// ConnInline for buf[:RecordSize]. The Conn slice is drawn from arena
// (which may be nil) so one query's fetches share chunked allocations.
func decodeRecordHeader(buf []byte, arena *connArena) (n Node, links [4]int64, connTotal int, overflowRef int64) {
	le := binary.LittleEndian
	off := 0
	getI := func() int64 { v := int64(le.Uint64(buf[off:])); off += 8; return v }
	getF := func() float64 { v := math.Float64frombits(le.Uint64(buf[off:])); off += 8; return v }
	n.ID = getI()
	n.Pos = geom.Point3{X: getF(), Y: getF(), Z: getF()}
	n.ELow = getF()
	n.EHigh = getF()
	n.Parent = getI()
	for i := range links {
		links[i] = getI()
	}
	connTotal = int(le.Uint16(buf[off:]))
	overflowRef = int64(le.Uint64(buf[off+2:]))
	off += 10
	inline := connTotal
	if max := (len(buf) - recHeaderSize) / 8; inline > max {
		inline = max
	}
	n.Conn = arena.alloc(connTotal)
	for i := 0; i < inline; i++ {
		n.Conn = append(n.Conn, int64(le.Uint64(buf[off+i*8:])))
	}
	return n, links, connTotal, overflowRef
}

// encodeOverflow writes one fixed overflow record holding ids (len <=
// OverflowFanout) chaining to next.
func encodeOverflow(ids []int64, next int64, buf []byte) {
	le := binary.LittleEndian
	le.PutUint64(buf[0:], uint64(next))
	le.PutUint16(buf[8:], uint16(len(ids)))
	for i, id := range ids {
		le.PutUint64(buf[10+i*8:], uint64(id))
	}
}

// encodeVarOverflow appends one variable overflow record to buf[:0]:
// the same next/count/IDs layout at exactly the needed length.
func encodeVarOverflow(ids []int64, next int64, buf []byte) []byte {
	need := 10 + len(ids)*8
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	buf = buf[:need]
	encodeOverflow(ids, next, buf)
	return buf
}

// decodeOverflow reads one overflow record of either encoding. A
// corrupted count is clamped to the record's physical capacity — the
// caller's total-length check then reports the inconsistency instead of
// an out-of-range panic here.
func decodeOverflow(buf []byte) (ids []int64, next int64) {
	le := binary.LittleEndian
	next = int64(le.Uint64(buf[0:]))
	cnt := int(le.Uint16(buf[8:]))
	if max := (len(buf) - 10) / 8; cnt > max {
		cnt = max
	}
	ids = make([]int64, cnt)
	for i := 0; i < cnt; i++ {
		ids[i] = int64(le.Uint64(buf[10+i*8:]))
	}
	return ids, next
}
