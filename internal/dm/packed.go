package dm

import (
	"math"

	"dmesh/internal/geom"
	"dmesh/internal/pm"
	"dmesh/internal/storage/heapfile"
	"dmesh/internal/wire"
)

// Packed record encoding (LayoutPacked, store format v4): the same node
// tuple as the fixed and variable encodings, entropy-coded so that pages
// hold 2-4x more records — fewer data-page reads for every query, the
// paper's own cost metric. The encoding is exact: a decoded Node is
// byte-for-byte equal (IEEE bit patterns included) to what the other
// encodings produce, which the reconstruction anchor
// (TestViewpointIndependentExactAgainstReplay) depends on. Like the fixed
// record it carries Child1, Child2, Wing1 and Wing2, which no query reads:
// the decoder holds them to the same canonical spelling and hands them to
// its caller, and the fetch path drops them.
//
// Wire format, in order:
//
//	uvarint   node ID
//	uint16    field-presence bitmap (little-endian; see pk* bits)
//	[int64    overflow chain head, only when pkOverflow is set]
//	floats    X, Y, Z, ELow, EHigh — each either omitted (pkELowZero /
//	          pkEHighInf), a zigzag-varint dyadic grid index (pk*Dyadic),
//	          or 8 raw little-endian IEEE-754 bits
//	refs      Parent, Child1, Child2, Wing1, Wing2 — zigzag varint of
//	          (ref - ID) when the matching presence bit is set, omitted
//	          (meaning pm.None) otherwise
//	uvarint   total connection count
//	deltas    inline connection IDs: zigzag varint of conn[0]-ID, then
//	          conn[i]-conn[i-1] (lists are sorted, so deltas are small);
//	          the inline run ends at the record's physical end, IDs
//	          beyond it live in the (raw) overflow chain
//
// Escape rules: pm.None (-1) topology references are never delta-coded —
// their presence bit is simply clear. ELow +0.0 (the majority: every
// leaf) and EHigh +Inf (every root) cost 0 bytes. A float is dyadic when
// wire.DyadicIndex says so — true for the grid coordinates i/2^k and
// their collapse midpoints, never true for NaN (any payload), infinities,
// or -0.0, which all take the raw 8-byte path. The decoder accepts only
// the spelling the encoder picks (minimal varints, the dyadic index
// whenever one exists, the zero-byte escapes whenever they apply, no
// presence bit for pm.None or for an absent overflow head), so a record
// that decodes re-encodes to the identical bytes.
const (
	pkParent = 1 << iota
	pkChild1
	pkChild2
	pkWing1
	pkWing2
	pkXDyadic
	pkYDyadic
	pkZDyadic
	pkELowZero
	pkELowDyadic
	pkEHighInf
	pkEHighDyadic
	pkOverflow
	// pkReserved bits must be zero; a set bit marks a corrupt record.
	pkReserved = 0xE000
)

// maxPackedConn is the sanity bound on a packed record's connection
// count: far above any real valence (the paper's average total list is
// 840 at 17M points), far below anything that could wedge a decoder fed
// a corrupt count.
const maxPackedConn = 1 << 32

// packedRefs lists the record's five topology references in wire order:
// Parent, then the links (Child1, Child2, Wing1, Wing2).
func packedRefs(n *Node, links [4]int64) [5]int64 {
	return [5]int64{n.Parent, links[0], links[1], links[2], links[3]}
}

// packedFlags computes the record's presence bitmap and, alongside it,
// the dyadic indices of the float fields that have one. Encoding and
// length computation share it so they can never disagree.
func packedFlags(n *Node, links [4]int64, overflow bool) (flags uint16, dy [5]int64) {
	for i, r := range packedRefs(n, links) {
		if r != pm.None {
			flags |= 1 << i
		}
	}
	vals := [5]float64{n.Pos.X, n.Pos.Y, n.Pos.Z, n.ELow, n.EHigh}
	dyBits := [5]uint16{pkXDyadic, pkYDyadic, pkZDyadic, pkELowDyadic, pkEHighDyadic}
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
			flags |= dyBits[i]
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
func packedRecordLen(n *Node, links [4]int64, inline int, overflow bool) int {
	flags, dy := packedFlags(n, links, overflow)
	size := wire.UvarintLen(uint64(n.ID)) + 2
	if overflow {
		size += 8
	}
	dyBits := [5]uint16{pkXDyadic, pkYDyadic, pkZDyadic, pkELowDyadic, pkEHighDyadic}
	for i, bit := range dyBits {
		switch {
		case i == 3 && flags&pkELowZero != 0, i == 4 && flags&pkEHighInf != 0:
		case flags&bit != 0:
			size += wire.VarintLen(dy[i])
		default:
			size += 8
		}
	}
	for i, r := range packedRefs(n, links) {
		if flags&(1<<i) != 0 {
			size += wire.VarintLen(r - n.ID)
		}
	}
	size += wire.UvarintLen(uint64(len(n.Conn)))
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
// the longest prefix that fits once the 8-byte overflow head is added.
func packedSplit(n *Node, links [4]int64) int {
	if packedRecordLen(n, links, len(n.Conn), false) <= heapfile.MaxVarRecord {
		return len(n.Conn)
	}
	size := packedRecordLen(n, links, 0, true)
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
// the rest (noOverflow, -1, when the list is wholly inline). links are the
// node's Child1, Child2, Wing1 and Wing2, which Node does not hold.
func EncodePackedRecord(n *Node, links [4]int64, overflowRef int64, inline int, buf []byte) []byte {
	buf = wire.AppendUvarint(buf[:0], uint64(n.ID))
	flags, dy := packedFlags(n, links, overflowRef != noOverflow)
	buf = wire.AppendU16(buf, flags)
	if overflowRef != noOverflow {
		buf = wire.AppendU64(buf, uint64(overflowRef))
	}
	vals := [5]float64{n.Pos.X, n.Pos.Y, n.Pos.Z, n.ELow, n.EHigh}
	dyBits := [5]uint16{pkXDyadic, pkYDyadic, pkZDyadic, pkELowDyadic, pkEHighDyadic}
	for i, v := range vals {
		switch {
		case i == 3 && flags&pkELowZero != 0, i == 4 && flags&pkEHighInf != 0:
		case flags&dyBits[i] != 0:
			buf = wire.AppendVarint(buf, dy[i])
		default:
			buf = wire.AppendF64(buf, v)
		}
	}
	for i, r := range packedRefs(n, links) {
		if flags&(1<<i) != 0 {
			buf = wire.AppendVarint(buf, r-n.ID)
		}
	}
	buf = wire.AppendUvarint(buf, uint64(len(n.Conn)))
	prev := n.ID
	for _, c := range n.Conn[:inline] {
		buf = wire.AppendVarint(buf, c-prev)
		prev = c
	}
	return buf
}

// DecodePackedRecord decodes one packed record: the node with the inline
// portion of its connection list, the links no Node field holds (Child1,
// Child2, Wing1, Wing2; read and checked like Parent, for the caller to
// drop or re-encode), the total connection count, and the overflow chain
// head (noOverflow when wholly inline). Malformed or non-canonical bytes
// surface as errors wrapping wire.ErrCorrupt, never panics, and never
// unbounded allocations — the Conn capacity is bounded by the record's own
// physical length. arena may be nil.
func DecodePackedRecord(buf []byte, arena *connArena) (n Node, links [4]int64, connTotal int, overflowRef int64, err error) {
	r := wire.NewReader("dm: packed record", buf)
	id := r.Uvarint()
	if id > math.MaxInt64 {
		r.Corruptf("node ID out of range")
	}
	n.ID = int64(id)
	flags := r.U16()
	if flags&pkReserved != 0 ||
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
	dyBits := [5]uint16{pkXDyadic, pkYDyadic, pkZDyadic, pkELowDyadic, pkEHighDyadic}
	for i := range vals {
		switch {
		case i == 3 && flags&pkELowZero != 0:
			vals[i] = 0
		case i == 4 && flags&pkEHighInf != 0:
			vals[i] = math.Inf(1)
		default:
			v := r.Float(flags&dyBits[i] != 0)
			if (i == 3 && math.Float64bits(v) == 0) || (i == 4 && math.IsInf(v, 1)) {
				r.Corruptf("escapable value spelled out")
			}
			vals[i] = v
		}
	}
	n.Pos = geom.Point3{X: vals[0], Y: vals[1], Z: vals[2]}
	n.ELow, n.EHigh = vals[3], vals[4]

	r.Section("topology refs")
	refs := [5]int64{pm.None, pm.None, pm.None, pm.None, pm.None}
	for i := range refs {
		if flags&(1<<i) != 0 {
			if refs[i] = n.ID + r.Varint(); refs[i] == pm.None {
				r.Corruptf("presence bit on an absent ref")
			}
		}
	}
	n.Parent, links = refs[0], [4]int64(refs[1:])

	r.Section("connections")
	total := r.Uvarint()
	if total > maxPackedConn {
		r.Corruptf("connection count %d out of range", total)
	}
	if r.Err() != nil {
		return Node{}, [4]int64{}, 0, 0, r.Err()
	}
	connTotal = int(total)
	// Inline deltas run to the record's physical end. Capacity is exact
	// for wholly-inline lists (each delta costs at least one byte, so the
	// remaining bytes bound the entries) and spilled lists grow out of
	// the arena chunk during the chain walk — the rare case pays one
	// reallocation instead of every record paying a per-fetch make.
	n.Conn = arena.alloc(min(connTotal, r.Len()))
	prev := n.ID
	for r.Len() > 0 && r.Err() == nil {
		prev += r.Varint()
		n.Conn = append(n.Conn, prev)
	}
	switch {
	case len(n.Conn) > connTotal:
		r.Corruptf("more inline IDs than count")
	case overflowRef == noOverflow && len(n.Conn) != connTotal:
		r.Corruptf("truncated inline connection list")
	}
	if err := r.Done(); err != nil {
		return Node{}, [4]int64{}, 0, 0, err
	}
	return n, links, connTotal, overflowRef, nil
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
