package dm

import (
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"dmesh/internal/storage/pager"
	"dmesh/internal/wire"
)

// LODLadder returns the LOD ladder of a store built from ds: the discrete
// LODs its tiles are materialized at, and the ladder every tile cache over
// it snaps requests to. The rungs are the internal nodes' LOD values at a
// spread of percentiles from mid-detail to the coarse end, deduplicated
// and ascending; {0} when ds has no internal node.
func LODLadder(ds *Dataset) []float64 {
	var lods []float64
	for i := range ds.Tree.Nodes {
		if !ds.Tree.Nodes[i].IsLeaf() {
			lods = append(lods, ds.Tree.Nodes[i].ELow)
		}
	}
	if len(lods) == 0 {
		return []float64{0}
	}
	slices.Sort(lods)
	var ladder []float64
	for _, p := range []float64{0.50, 0.70, 0.80, 0.90, 0.95, 0.97, 0.99, 0.995} {
		if e := lods[int(p*float64(len(lods)-1))]; len(ladder) == 0 || e > ladder[len(ladder)-1] {
			ladder = append(ladder, e)
		}
	}
	return ladder
}

// rungSets answers "is node id live at LOD e" for the rungs of the store's
// LOD ladder: one bitset over the dense node IDs per rung, bit id set iff
// node id's LOD interval contains the rung. A tile exists at exactly one
// rung, so MaterializeTile drops the out-pairs whose far endpoint cannot
// be live there with one bit test each.
//
// The sets are built where every node is already in memory (buildStore),
// persisted beside the heap by BuildStoreAt and loaded by OpenStore; they
// are immutable from then on, so every Session shares its store's.
type rungSets struct {
	rungs []float64 // strictly ascending
	nodes int64     // bits per set
	live  []liveSet // live[k] is rungs[k]'s set, (nodes+63)/64 words
}

// allocSets gives rs one zeroed set per rung, cut from one slab (returned
// for whoever fills it word by word).
func (rs *rungSets) allocSets() []uint64 {
	words := int(rs.nodes+63) / 64
	slab := make([]uint64, len(rs.rungs)*words)
	rs.live = make([]liveSet, len(rs.rungs))
	for k := range rs.live {
		rs.live[k] = slab[k*words : (k+1)*words : (k+1)*words]
	}
	return slab
}

// newRungSets builds the sets of the given rungs (any order, repeats
// dropped; a ladder, so never none) over nodes indexed by ID.
func newRungSets(nodes []Node, rungs []float64) (*rungSets, error) {
	rs := &rungSets{rungs: slices.Clone(rungs), nodes: int64(len(nodes))}
	for _, e := range rs.rungs {
		if math.IsNaN(e) {
			return nil, fmt.Errorf("dm: rung sets: NaN rung")
		}
	}
	slices.Sort(rs.rungs)
	rs.rungs = slices.Compact(rs.rungs)
	rs.allocSets()
	for id := range nodes {
		iv := nodes[id].Interval()
		for k, e := range rs.rungs {
			if iv.Contains(e) {
				rs.live[k][id>>6] |= 1 << (id & 63)
			}
		}
	}
	return rs, nil
}

// at returns the live set of rung e, or an error when e is not a rung
// (NaN never is: the rungs hold none).
func (rs *rungSets) at(e float64) (liveSet, error) {
	k, ok := slices.BinarySearch(rs.rungs, e)
	if !ok {
		return nil, fmt.Errorf("dm: LOD %g is not a rung of the store's ladder %v", e, rs.rungs)
	}
	return rs.live[k], nil
}

// liveSet is one rung's bitset.
type liveSet []uint64

// has reports whether id is live. An ID outside the store's dense range —
// only a corrupt connection list holds one — is live nowhere.
func (ls liveSet) has(id int64) bool {
	w := uint64(id) >> 6
	return w < uint64(len(ls)) && ls[w]>>(uint64(id)&63)&1 != 0
}

// Rung-set file (DMRS v1), the fifth file of a store directory. The sets
// decide which seam edges a tile keeps, so the file is held to the page
// files' discipline: it is a page file itself (StorePools' WrapBackend and
// Checksums apply, and OpenStore's open-time sweep covers it) and carries
// its own CRC-32C for stores built without page checksums. Layout (little
// endian), zero-padded to whole pages:
//
//	magic "DMRS", version uvarint (1)
//	node count uvarint, rung count uvarint
//	the rungs, ascending (float64 bits)
//	per rung, (node count + 63) / 64 words of bitset
//	CRC-32C of everything above (as a uint64)
const (
	rungWireMagic   = "DMRS"
	rungWireVersion = 1
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (rs *rungSets) encode() []byte {
	buf := make([]byte, 0, 32+8*len(rs.rungs)*(1+len(rs.live[0]))+8)
	buf = append(buf, rungWireMagic...)
	buf = wire.AppendUvarint(buf, rungWireVersion)
	buf = wire.AppendUvarint(buf, uint64(rs.nodes))
	buf = wire.AppendUvarint(buf, uint64(len(rs.rungs)))
	buf = wire.AppendF64(buf, rs.rungs...)
	for _, set := range rs.live {
		for _, w := range set {
			buf = wire.AppendU64(buf, w)
		}
	}
	return wire.AppendU64(buf, uint64(crc32.Checksum(buf, castagnoli)))
}

// decodeRungSets parses a rung-set file's pages. Anything but an encoder's
// output followed by less than a page of zero padding is an error wrapping
// wire.ErrCorrupt.
func decodeRungSets(b []byte) (*rungSets, error) {
	r := wire.NewReader("dm: rung sets", b)
	r.Magic(rungWireMagic)
	if v := r.Uvarint(); v != rungWireVersion {
		r.Corruptf("unsupported version %d", v)
	}
	nodes := r.Uvarint()
	if nodes > math.MaxInt32 { // store IDs are 32-bit sort keys (see fetchRecord)
		r.Corruptf("impossible node count %d", nodes)
	}
	rs := &rungSets{nodes: int64(nodes)}
	words := (int(nodes) + 63) / 64
	rs.rungs = make([]float64, r.Count("rungs", 8*(1+words)))
	if len(rs.rungs) == 0 {
		r.Corruptf("no rungs")
	}
	for k := range rs.rungs {
		rs.rungs[k] = r.F64()
		if e := rs.rungs[k]; math.IsNaN(e) || (k > 0 && e <= rs.rungs[k-1]) {
			r.Corruptf("rungs out of order")
		}
	}
	r.Section("sets")
	slab := rs.allocSets()
	for i := range slab {
		slab[i] = r.U64()
	}
	r.Section("checksum")
	end := len(b) - r.Len()
	if sum := r.U64(); r.Err() == nil && sum != uint64(crc32.Checksum(b[:end], castagnoli)) {
		r.Corruptf("checksum mismatch")
	}
	r.Section("padding")
	if r.Len() >= pager.PageSize {
		r.Corruptf("%d trailing bytes", r.Len())
	}
	for r.Err() == nil && r.Len() > 0 {
		if r.Byte() != 0 {
			r.Corruptf("nonzero padding")
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return rs, nil
}

// writeRungSets lays the encoded sets out on an empty page backend. The
// pages go straight to the backend: no pager, no disk access counted.
func writeRungSets(b pager.Backend, rs *rungSets) error {
	enc := rs.encode()
	page := make([]byte, pager.PageSize)
	for len(enc) > 0 {
		id, err := b.Allocate()
		if err != nil {
			return err
		}
		clear(page)
		enc = enc[copy(page, enc):]
		if err := b.WritePage(id, page); err != nil {
			return err
		}
	}
	return b.Sync()
}

// readRungSets reads every page of a rung-set backend (again past any
// pager) and decodes them.
func readRungSets(b pager.Backend) (*rungSets, error) {
	pages := int(b.NumPages())
	buf := make([]byte, pages*pager.PageSize)
	for id := 0; id < pages; id++ {
		if err := b.ReadPage(pager.PageID(id), buf[id*pager.PageSize:][:pager.PageSize]); err != nil {
			return nil, err
		}
	}
	return decodeRungSets(buf)
}
