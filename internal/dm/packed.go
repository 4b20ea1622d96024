package dm

import (
	"math"

	"dmesh/internal/geom"
	"dmesh/internal/pm"
	"dmesh/internal/storage/heapfile"
	"dmesh/internal/wire"
)

// Packed record encoding (LayoutPacked, store format v6): the node as a
// query holds it, entropy-coded so that pages hold 2-4x more records —
// fewer data-page reads for every query, the paper's own cost metric. The
// encoding is exact: a decoded Node is byte-for-byte equal (IEEE bit
// patterns included) to what the fixed encoding produces, which the
// reconstruction anchor (TestViewpointIndependentExactAgainstReplay)
// depends on. Unlike the fixed record it holds nothing a query does not
// read: no Child1, Child2, Wing1 or Wing2, and no connection count when
// the whole list is inline.
//
// Wire format, in order:
//
//	uvarint   node ID
//	uvarint   field-presence bitmap (see pk* bits; one byte on every
//	          record but a root's or a spilled one's)
//	[int64    overflow chain head, only when pkOverflow is set]
//	floats    X, Y, Z, ELow, EHigh — each either omitted (pkELowZero /
//	          pkEHighInf), a zigzag-varint dyadic grid index (pk*Dyadic),
//	          or 8 raw little-endian IEEE-754 bits
//	[varint   Parent - ID, zigzag, only when pkParent is set]
//	[uvarint  total connection count, only when pkOverflow is set]
//	deltas    inline connection IDs: zigzag varint of conn[0]-ID, then
//	          conn[i]-conn[i-1], at least 1 (lists are strictly ascending);
//	          the inline run ends at the record's physical end, which the
//	          slotted page supplies. A wholly inline list's count is the
//	          number of varints in it; IDs beyond a spilled record's run
//	          live in the (raw) overflow chain
//
// Escape rules: a root's Parent (pm.None) is never delta-coded — its
// presence bit is simply clear. ELow +0.0 (the majority: every leaf) and
// EHigh +Inf (every root) cost 0 bytes. A float is dyadic when
// wire.DyadicIndex says so — true for the grid coordinates i/2^k and
// their collapse midpoints, never true for NaN (any payload), infinities,
// or -0.0, which all take the raw 8-byte path. The decoder accepts only
// the spelling the encoder picks (minimal varints, the dyadic index
// whenever one exists, the zero-byte escapes whenever they apply, no
// presence bit for pm.None or for an absent overflow head, a spilled
// count above the inline run), so a record that decodes re-encodes to the
// identical bytes. A record is not self-delimiting: cut at a delta
// boundary it is the same node with a shorter list.
const (
	// The bits most records set come first, so the bitmap is one byte.
	pkParent = 1 << iota
	pkXDyadic
	pkYDyadic
	pkZDyadic
	pkELowZero
	pkELowDyadic
	pkEHighDyadic
	// The rare ones: only roots have EHigh +Inf, and a list spills only
	// when its deltas overrun a page.
	pkEHighInf
	pkOverflow
	// pkBits bounds the bitmap; any higher bit marks a corrupt record.
	pkBits = 1 << iota
)

// maxPackedConn is the sanity bound on a spilled record's connection
// count: far above any real valence (the paper's average total list is
// 840 at 17M points), far below anything that could wedge a decoder fed
// a corrupt count.
const maxPackedConn = 1 << 32

// packedDyBits lists the dyadic presence bit of each float field, in wire
// order: X, Y, Z, ELow, EHigh.
var packedDyBits = [5]uint64{pkXDyadic, pkYDyadic, pkZDyadic, pkELowDyadic, pkEHighDyadic}

// packedFlags computes the record's presence bitmap and, alongside it,
// the dyadic indices of the float fields that have one. Encoding and
// length computation share it so they can never disagree.
func packedFlags(n *Node, overflow bool) (flags uint64, dy [5]int64) {
	if n.Parent != pm.None {
		flags |= pkParent
	}
	vals := [5]float64{n.Pos.X, n.Pos.Y, n.Pos.Z, n.ELow, n.EHigh}
	for i, v := range vals {
		if i == 3 && math.Float64bits(v) == 0 {
			flags |= pkELowZero
			continue
		}
		if i == 4 && math.Float64bits(v) == math.Float64bits(math.Inf(1)) {
			flags |= pkEHighInf
			continue
		}
		if m, ok := wire.DyadicIndex(v); ok {
			flags |= packedDyBits[i]
			dy[i] = m
		}
	}
	if overflow {
		flags |= pkOverflow
	}
	return flags, dy
}

// packedRecordLen returns the encoded byte length of n's record with the
// given inline connection prefix, without materializing it. It mirrors
// EncodePackedRecord exactly; the spill split relies on that.
func packedRecordLen(n *Node, inline int, overflow bool) int {
	flags, dy := packedFlags(n, overflow)
	size := wire.UvarintLen(uint64(n.ID)) + wire.UvarintLen(flags)
	if overflow {
		size += 8 + wire.UvarintLen(uint64(len(n.Conn)))
	}
	for i, bit := range packedDyBits {
		switch {
		case i == 3 && flags&pkELowZero != 0, i == 4 && flags&pkEHighInf != 0:
		case flags&bit != 0:
			size += wire.VarintLen(dy[i])
		default:
			size += 8
		}
	}
	if flags&pkParent != 0 {
		size += wire.VarintLen(n.Parent - n.ID)
	}
	prev := n.ID
	for _, c := range n.Conn[:inline] {
		size += wire.VarintLen(c - prev)
		prev = c
	}
	return size
}

// packedSplit returns how many connection IDs the packed record stores
// inline: the whole list when the record fits a slotted page (the
// overwhelmingly common case — packed lists cost 1-2 bytes per ID), else
// the longest prefix that fits once the 8-byte overflow head and the
// count are added.
func packedSplit(n *Node) int {
	if packedRecordLen(n, len(n.Conn), false) <= heapfile.MaxVarRecord {
		return len(n.Conn)
	}
	size := packedRecordLen(n, 0, true)
	inline := 0
	prev := n.ID
	for _, c := range n.Conn {
		l := wire.VarintLen(c - prev)
		if size+l > heapfile.MaxVarRecord {
			break
		}
		size += l
		prev = c
		inline++
	}
	return inline
}

// EncodePackedRecord appends n's compressed record to buf[:0] with the
// first inline connection IDs stored in place and overflowRef chaining
// the rest (noOverflow, -1, when the list is wholly inline).
func EncodePackedRecord(n *Node, overflowRef int64, inline int, buf []byte) []byte {
	overflow := overflowRef != noOverflow
	flags, dy := packedFlags(n, overflow)
	buf = wire.AppendUvarint(buf[:0], uint64(n.ID))
	buf = wire.AppendUvarint(buf, flags)
	if overflow {
		buf = wire.AppendU64(buf, uint64(overflowRef))
	}
	vals := [5]float64{n.Pos.X, n.Pos.Y, n.Pos.Z, n.ELow, n.EHigh}
	for i, v := range vals {
		switch {
		case i == 3 && flags&pkELowZero != 0, i == 4 && flags&pkEHighInf != 0:
		case flags&packedDyBits[i] != 0:
			buf = wire.AppendVarint(buf, dy[i])
		default:
			buf = wire.AppendF64(buf, v)
		}
	}
	if flags&pkParent != 0 {
		buf = wire.AppendVarint(buf, n.Parent-n.ID)
	}
	if overflow {
		buf = wire.AppendUvarint(buf, uint64(len(n.Conn)))
	}
	prev := n.ID
	for _, c := range n.Conn[:inline] {
		buf = wire.AppendVarint(buf, c-prev)
		prev = c
	}
	return buf
}

// DecodePackedRecord decodes one packed record, buf being exactly its
// bytes: the node with the inline portion of its connection list, the
// total connection count, and the overflow chain head (noOverflow when
// wholly inline). Malformed or non-canonical bytes surface as errors
// wrapping wire.ErrCorrupt, never panics, and never unbounded allocations
// — the Conn capacity is bounded by the record's own physical length.
// arena may be nil.
func DecodePackedRecord(buf []byte, arena *connArena) (n Node, connTotal int, overflowRef int64, err error) {
	r := wire.NewReader("dm: packed record", buf)
	id := r.Uvarint()
	if id > math.MaxInt64 {
		r.Corruptf("node ID out of range")
	}
	n.ID = int64(id)
	flags := r.Uvarint()
	if flags >= pkBits ||
		flags&(pkELowZero|pkELowDyadic) == pkELowZero|pkELowDyadic ||
		flags&(pkEHighInf|pkEHighDyadic) == pkEHighInf|pkEHighDyadic {
		r.Corruptf("bad bitmap bits")
	}
	overflowRef = noOverflow
	if flags&pkOverflow != 0 {
		if overflowRef = int64(r.U64()); overflowRef == noOverflow {
			r.Corruptf("overflow bit without a chain head")
		}
	}

	r.Section("floats")
	var vals [5]float64
	for i := range vals {
		switch {
		case i == 3 && flags&pkELowZero != 0:
			vals[i] = 0
		case i == 4 && flags&pkEHighInf != 0:
			vals[i] = math.Inf(1)
		default:
			v := r.Float(flags&packedDyBits[i] != 0)
			if (i == 3 && math.Float64bits(v) == 0) || (i == 4 && math.IsInf(v, 1)) {
				r.Corruptf("escapable value spelled out")
			}
			vals[i] = v
		}
	}
	n.Pos = geom.Point3{X: vals[0], Y: vals[1], Z: vals[2]}
	n.ELow, n.EHigh = vals[3], vals[4]

	r.Section("parent")
	n.Parent = pm.None
	if flags&pkParent != 0 {
		if n.Parent = n.ID + r.Varint(); n.Parent == pm.None {
			r.Corruptf("presence bit on an absent parent")
		}
	}

	r.Section("connections")
	if overflowRef != noOverflow {
		total := r.Uvarint()
		if total > maxPackedConn {
			r.Corruptf("connection count %d out of range", total)
		}
		connTotal = int(total)
	}
	if r.Err() != nil {
		return Node{}, 0, 0, r.Err()
	}
	// Inline deltas run to the record's physical end. A wholly inline
	// list has exactly as many entries as the run has varint terminators,
	// so its capacity is exact; a spilled list grows out of the arena
	// chunk during the chain walk — the rare case pays one reallocation
	// instead of every record paying a per-fetch make.
	run := buf[len(buf)-r.Len():]
	if overflowRef == noOverflow {
		for _, b := range run {
			if b < 0x80 {
				connTotal++
			}
		}
	}
	n.Conn = arena.alloc(min(connTotal, len(run)))
	prev := n.ID
	for r.Len() > 0 && r.Err() == nil {
		d := r.Varint()
		switch {
		case r.Err() != nil:
		case len(n.Conn) > 0 && (d < 1 || prev+d < prev):
			r.Corruptf("connection IDs out of order")
		default:
			prev += d
			n.Conn = append(n.Conn, prev)
		}
	}
	if overflowRef != noOverflow && len(n.Conn) >= connTotal {
		r.Corruptf("%d inline IDs of a spilled list of %d", len(n.Conn), connTotal)
	}
	if err := r.Done(); err != nil {
		return Node{}, 0, 0, err
	}
	return n, connTotal, overflowRef, nil
}

// connArena batch-allocates the Conn slices decoded nodes retain: the
// assembly maps hold fetched nodes for the life of one query, so their
// list allocations are batched into chunks instead of one make per
// record. Each alloc hands out a fresh, capacity-clamped window, so a
// slice stays valid as long as its node does (coherent sessions retain
// nodes across frames) and appends past the window reallocate instead of
// clobbering a neighbor. Only a recycling arena (a one-shot query's, see
// oneShot) reuses memory: it keeps its chunks and, once fetcher.recycle
// has rewound it (every node it served is dead by then), hands them out
// again.
type connArena struct {
	free    []int64
	recycle bool
	chunks  [][]int64 // a recycling arena's chunks; chunks[next:] are unused
	next    int
}

// connArenaChunk is the chunk size in IDs (32 KiB); lists longer than a
// quarter of it are allocated directly to keep chunk waste bounded.
const connArenaChunk = 4096

func (a *connArena) alloc(c int) []int64 {
	if a == nil || c > connArenaChunk/4 {
		return make([]int64, 0, c)
	}
	if len(a.free) < c {
		if a.recycle && a.next == len(a.chunks) {
			a.chunks = append(a.chunks, make([]int64, connArenaChunk))
		}
		if a.next < len(a.chunks) {
			a.free = a.chunks[a.next]
			a.next++
		} else {
			a.free = make([]int64, connArenaChunk)
		}
	}
	out := a.free[0:0:c]
	a.free = a.free[c:]
	return out
}
