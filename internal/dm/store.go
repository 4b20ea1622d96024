package dm

import (
	"fmt"
	"math"
	"slices"

	"dmesh/internal/costmodel"
	"dmesh/internal/geom"
	"dmesh/internal/obs"
	"dmesh/internal/rtree"
	"dmesh/internal/storage/btree"
	"dmesh/internal/storage/heapfile"
	"dmesh/internal/storage/pager"
)

// Store is the disk-resident Direct Mesh: node records in a heap file
// clustered on the spatial index (Section 6: "terrain data is arranged on
// the disk in such a way that their (x, y) clustering is preserved as much
// as possible" — records in the R*-tree's STR leaf order, compressed
// unless LayoutSTR is asked for), a 3D R*-tree over the nodes' vertical
// segments in (x, y, e) space, a B+-tree from node ID to record, and an
// overflow file for the fixed records' long connection lists.
//
// Exactly one of heap (fixed records; LayoutSTR) and vheap (packed
// records; LayoutPacked) is non-nil, per layout. Both live on heapP; a
// packed store keeps its overflow records in vheap too, co-located with
// their owners, so its conn.overflow file stays empty.
type Store struct {
	heap  *heapfile.File
	vheap *heapfile.VarFile
	over  *heapfile.File
	rt    *rtree.Tree
	idx   *btree.Tree
	heapP *pager.Pager
	overP *pager.Pager
	rtP   *pager.Pager
	idxP  *pager.Pager

	layout Layout
	maxE   float64
	space  geom.Box
	// rungs holds the live-ID set of every rung of the store's LOD ladder
	// (LODLadder), the only LODs MaterializeTile answers at.
	rungs *rungSets

	// tr, when non-nil, receives phase-attributed spans from every query
	// run on this view. Nil (the default) costs one pointer check per
	// span site and nothing else.
	tr *obs.Trace
}

// SetTrace attaches a phase tracer to this store view: subsequent
// queries emit obs spans whose DA attribution is exact against the
// view's counters. A trace is single-goroutine, like the view itself —
// attach to per-request Sessions when serving concurrently (NewSession
// never inherits the parent store's trace). Pass nil to detach.
func (s *Store) SetTrace(tr *obs.Trace) { s.tr = tr }

// Layout selects the record encoding of the heap file. Both layouts
// store the records in the R*-tree's STR leaf order.
type Layout int

const (
	// LayoutPacked is the default and the serving layout: compressed
	// variable-length records (zigzag-varint connection deltas, a
	// delta-coded parent, a field-presence bitmap and a lossless dyadic
	// fast path for floats; no child or wing links; see packed.go) laid out in the R*-tree's STR
	// leaf order, so the records of one index leaf share data pages — the
	// table is clustered on the index. Records shrink to under a quarter
	// of the fixed encoding, whole connection lists are inline (no
	// overflow file), and decoding is bit-exact, so answers are unchanged.
	LayoutPacked Layout = iota
	// LayoutSTR is the same index clustering on fixed-size records with a
	// separate overflow file for lists beyond ConnInline: the physical
	// design the paper's figures are measured on (experiments.BuildBundle
	// asks for it by name).
	LayoutSTR
)

// String returns the layout's flag spelling (see ParseLayout).
func (l Layout) String() string {
	switch l {
	case LayoutPacked:
		return "packed"
	case LayoutSTR:
		return "str"
	}
	return fmt.Sprintf("layout(%d)", int(l))
}

// ParseLayout parses a layout name as spelled by String — the form the
// command-line tools accept and meta.json records.
func ParseLayout(name string) (Layout, error) {
	for _, l := range []Layout{LayoutPacked, LayoutSTR} {
		if name == l.String() {
			return l, nil
		}
	}
	return 0, fmt.Errorf("dm: unknown layout %q (want packed or str)", name)
}

// StorePools sizes the buffer pools (in pages) of the store's four files
// and selects the record layout. The zero value selects defaults suitable
// for tests, examples and serving (LayoutPacked, one buffer-pool shard).
//
// Shards splits each buffer pool into that many independently locked
// shards. The default of one shard reproduces a monolithic pool exactly —
// identical evictions, identical disk-access counts — which the figure
// measurements depend on; servers answering many queries concurrently
// should set it to roughly the core count.
// Checksums protects every page of the four files with a CRC-32C
// verified on each backend read and re-stamped on each write
// (pager.Checksummed). Verification happens inside the one counted
// backend read, so every disk-access figure is unchanged; corruption
// and torn writes surface as errors wrapping pager.ErrChecksum instead
// of silently wrong answers. The choice is recorded in meta.json and
// re-applied by OpenStore.
//
// WrapBackend, when set, wraps each file's backend before the checksum
// layer (raw → WrapBackend → checksums → pager): the hook fault-
// injection tests and the chaos experiment use to interpose
// faultfs-style wrappers underneath the integrity layer.
type StorePools struct {
	Data, Overflow, Index, IDIndex int
	Layout                         Layout
	Shards                         int
	Checksums                      bool
	WrapBackend                    func(pager.Backend) pager.Backend
}

func (sp *StorePools) defaults() {
	if sp.Data <= 0 {
		sp.Data = 4096
	}
	if sp.Overflow <= 0 {
		sp.Overflow = 512
	}
	if sp.Index <= 0 {
		sp.Index = 2048
	}
	if sp.IDIndex <= 0 {
		sp.IDIndex = 1024
	}
	if sp.Shards <= 0 {
		sp.Shards = 1
	}
}

// newPager builds one of the store's pagers per the pool configuration.
func (sp *StorePools) newPager(backend pager.Backend, capPages int) *pager.Pager {
	return pager.NewSharded(backend, capPages, sp.Shards, pager.LRU)
}

// wrap layers the configured backend wrappers over one raw backend: the
// WrapBackend hook innermost (so injected faults model the disk), then
// the checksum layer on top. On an error b is closed, through the hook's
// wrapper when there is one.
func (sp *StorePools) wrap(b pager.Backend) (pager.Backend, error) {
	if sp.WrapBackend != nil {
		b = sp.WrapBackend(b)
	}
	if sp.Checksums {
		cb, err := pager.Checksummed(b)
		if err != nil {
			b.Close()
			return nil, err
		}
		return cb, nil
	}
	return b, nil
}

// wrapAll wraps the store's four raw backends (see wrap). On an error
// every one of them, wrapped or not, is closed.
func (sp *StorePools) wrapAll(bs [4]pager.Backend) ([4]pager.Backend, error) {
	for i := range bs {
		b, err := sp.wrap(bs[i])
		if err != nil {
			bs[i] = nil // wrap closed it
			closeBackends(bs[:])
			return bs, err
		}
		bs[i] = b
	}
	return bs, nil
}

// closeBackends closes every non-nil backend: the error paths of a build
// or an open, which leave no store behind to close them.
func closeBackends(bs []pager.Backend) {
	for _, b := range bs {
		if b != nil {
			b.Close()
		}
	}
}

// BuildStore lays ds out on fresh in-memory pagers. Use BuildStoreAt for
// a file-backed store that can be reopened.
func BuildStore(ds *Dataset, pools StorePools) (*Store, error) {
	return buildStore(ds, pools, [4]pager.Backend{
		pager.NewMemBackend(), pager.NewMemBackend(),
		pager.NewMemBackend(), pager.NewMemBackend(),
	}, nil)
}

// buildStore lays ds out on the given backends (heap, overflow, r*-tree,
// id index), then runs finish (when non-nil) on the result: BuildStoreAt
// passes the sidecar writes. The backends are the store's from the call
// on: when anything fails, finish included, every one of them is closed
// before the error returns.
func buildStore(ds *Dataset, pools StorePools, backends [4]pager.Backend, finish func(*Store) error) (_ *Store, err error) {
	pools.defaults()
	if backends, err = pools.wrapAll(backends); err != nil {
		return nil, fmt.Errorf("dm: wrap backend: %w", err)
	}
	defer func() {
		if err != nil {
			closeBackends(backends[:])
		}
	}()
	if pools.Layout != LayoutPacked && pools.Layout != LayoutSTR {
		return nil, fmt.Errorf("dm: unknown layout %d", pools.Layout)
	}
	nodes := make([]Node, len(ds.Tree.Nodes))
	for i := range nodes {
		nodes[i] = ds.Node(int64(i))
	}
	maxE := ds.Tree.MaxE
	s := &Store{
		heapP:  pools.newPager(backends[0], pools.Data),
		overP:  pools.newPager(backends[1], pools.Overflow),
		rtP:    pools.newPager(backends[2], pools.Index),
		idxP:   pools.newPager(backends[3], pools.IDIndex),
		layout: pools.Layout,
		maxE:   maxE,
	}
	if s.rungs, err = newRungSets(nodes, LODLadder(ds)); err != nil {
		return nil, err
	}
	if pools.Layout == LayoutPacked {
		if s.vheap, err = heapfile.CreateVar(s.heapP); err != nil {
			return nil, fmt.Errorf("dm: create heap: %w", err)
		}
	} else {
		if s.heap, err = heapfile.Create(s.heapP, RecordSize); err != nil {
			return nil, fmt.Errorf("dm: create heap: %w", err)
		}
	}
	// The overflow file exists for both layouts so the store directory has
	// one shape; a packed store simply never writes to it.
	if s.over, err = heapfile.Create(s.overP, OverflowRecordSize); err != nil {
		return nil, fmt.Errorf("dm: create overflow: %w", err)
	}
	if s.idx, err = btree.Create(s.idxP); err != nil {
		return nil, fmt.Errorf("dm: create id index: %w", err)
	}

	// The physical record order ("terrain data is arranged on the disk in
	// such a way that their (x, y) clustering is preserved as much as
	// possible", Section 6 — with the index available, clustering the
	// table on the index preserves it best): the R*-tree's STR leaf order.
	order := make([]rtree.Item, len(nodes))
	for id := range nodes {
		order[id] = rtree.Item{Box: segmentOf(&nodes[id], maxE), Ref: int64(id)}
	}
	order = rtree.STRLeafOrder(order)

	// Capacity covers the largest packed record, so neither buffer is
	// reallocated while building.
	buf := make([]byte, RecordSize, heapfile.MaxVarRecord)
	obuf := make([]byte, OverflowRecordSize, heapfile.MaxVarRecord)
	items := make([]rtree.Item, 0, len(order))
	space := geom.Box{MinX: math.Inf(1), MinY: math.Inf(1), MinE: 0,
		MaxX: math.Inf(-1), MaxY: math.Inf(-1), MaxE: s.maxE}
	for _, it := range order {
		id := it.Ref
		n := &nodes[id]
		var rid heapfile.RID
		var err error
		if pools.Layout == LayoutPacked {
			rid, err = s.appendPacked(n, buf, obuf)
		} else {
			rid, err = s.appendFixed(n, ds.links(id), buf, obuf)
		}
		if err != nil {
			return nil, err
		}
		if err := s.idx.Put(id, int64(rid)); err != nil {
			return nil, fmt.Errorf("dm: id index: %w", err)
		}
		items = append(items, rtree.Item{
			Box: segmentOf(n, s.maxE),
			Ref: int64(rid),
		})
		space.MinX = math.Min(space.MinX, n.Pos.X)
		space.MinY = math.Min(space.MinY, n.Pos.Y)
		space.MaxX = math.Max(space.MaxX, n.Pos.X)
		space.MaxY = math.Max(space.MaxY, n.Pos.Y)
	}
	s.space = space
	if s.rt, err = rtree.BulkLoad(s.rtP, items); err != nil {
		return nil, fmt.Errorf("dm: bulk load r*-tree: %w", err)
	}
	if finish != nil {
		if err = finish(s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// appendFixed writes one fixed-size record, spilling conn IDs beyond the
// inline capacity into an overflow chain in the separate overflow file,
// written tail-first so each record knows its successor. links are the
// node's children and wings (Dataset.links).
func (s *Store) appendFixed(n *Node, links [4]int64, buf, obuf []byte) (heapfile.RID, error) {
	overflowRef := noOverflow
	if len(n.Conn) > ConnInline {
		rest := n.Conn[ConnInline:]
		for start := ((len(rest) - 1) / OverflowFanout) * OverflowFanout; start >= 0; start -= OverflowFanout {
			end := start + OverflowFanout
			if end > len(rest) {
				end = len(rest)
			}
			encodeOverflow(rest[start:end], overflowRef, obuf)
			rid, err := s.over.Append(obuf)
			if err != nil {
				return 0, fmt.Errorf("dm: overflow append: %w", err)
			}
			overflowRef = int64(rid)
		}
	}
	encodeRecord(n, links, overflowRef, buf[:RecordSize])
	rid, err := s.heap.Append(buf[:RecordSize])
	if err != nil {
		return 0, fmt.Errorf("dm: heap append: %w", err)
	}
	return rid, nil
}

// appendPacked writes one compressed variable-length record: the whole
// connection list inline as zigzag-varint deltas when the encoding fits
// a page (virtually always — packed lists cost 1-2 bytes per ID), else
// the longest fitting prefix with the rest spilling to raw variable
// overflow records appended — tail-first — into the SAME file
// immediately before the owner, so the chain shares the owner's page (or
// the one just before it) and walking it costs no extra disk accesses.
func (s *Store) appendPacked(n *Node, buf, obuf []byte) (heapfile.RID, error) {
	overflowRef := noOverflow
	inline := packedSplit(n)
	if rest := n.Conn[inline:]; len(rest) > 0 {
		for start := ((len(rest) - 1) / varOverflowFanout) * varOverflowFanout; start >= 0; start -= varOverflowFanout {
			end := start + varOverflowFanout
			if end > len(rest) {
				end = len(rest)
			}
			obuf = encodeVarOverflow(rest[start:end], overflowRef, obuf)
			rid, err := s.vheap.Append(obuf)
			if err != nil {
				return 0, fmt.Errorf("dm: overflow append: %w", err)
			}
			overflowRef = int64(rid)
		}
	}
	buf = EncodePackedRecord(n, overflowRef, inline, buf)
	rid, err := s.vheap.Append(buf)
	if err != nil {
		return 0, fmt.Errorf("dm: heap append: %w", err)
	}
	return rid, nil
}

// segmentOf returns the node's vertical segment in (x, y, e) space; the
// root's infinite top is clamped to the dataset maximum.
func segmentOf(n *Node, maxE float64) geom.Box {
	hi := n.EHigh
	if math.IsInf(hi, 1) {
		hi = maxE
	}
	return geom.VerticalSegment(n.Pos.X, n.Pos.Y, n.ELow, hi)
}

// MaxE returns the dataset's maximum LOD value.
func (s *Store) MaxE() float64 { return s.maxE }

// Layout returns the store's physical record layout.
func (s *Store) Layout() Layout { return s.layout }

// NumNodes returns how many node records the store holds.
func (s *Store) NumNodes() int64 { return s.idx.Len() }

// Rungs returns the store's LOD ladder, ascending: the rungs it holds
// live-ID sets for, chosen at build by LODLadder and the only LODs
// MaterializeTile answers at.
func (s *Store) Rungs() []float64 { return slices.Clone(s.rungs.rungs) }

// DataPages returns how many data pages the node heap occupies —
// the footprint the layouts trade against disk accesses.
func (s *Store) DataPages() int64 {
	if s.layout == LayoutPacked {
		return s.vheap.DataPages()
	}
	perPage := int64(s.heap.PerPage())
	return (s.heap.NumRecords() + perPage - 1) / perPage
}

// OverflowPages returns how many pages the separate overflow file uses
// (always 0 for a packed store, whose chains live among the node
// records).
func (s *Store) OverflowPages() int64 {
	perPage := int64((pager.PageSize - 2) / OverflowRecordSize)
	return (s.over.NumRecords() + perPage - 1) / perPage
}

// DataSpace returns the (x, y, e) bounding box of the stored segments,
// the normalization space for the cost model.
func (s *Store) DataSpace() geom.Box { return s.space }

// RTree exposes the spatial index (for the cost model's node statistics).
func (s *Store) RTree() *rtree.Tree { return s.rt }

// CostModel builds the multi-base optimizer's cost model for this store:
// formula (1) over the R*-tree's nodes, with leaf terms scaled by the
// data pages each visited leaf implies — entries per leaf over realized
// records per page, which is what a leaf's records span when the heap is
// clustered on the index, as both layouts' heaps are. Building it scans
// the index once (a once-off cost, not charged to queries).
func (s *Store) CostModel() (*costmodel.Model, error) {
	m, err := costmodel.FromRTree(s.rt, s.space)
	if err != nil {
		return nil, err
	}
	recsPerPage := float64((pager.PageSize - 2) / RecordSize)
	if s.layout == LayoutPacked {
		// Packed records have no static per-page count; use the realized
		// density (node records over slotted data pages, overflow included).
		if dp := s.vheap.DataPages(); dp > 0 {
			recsPerPage = float64(s.idx.Len()) / float64(dp)
		} else {
			// No data pages to measure (an empty store): fall back to a
			// static estimate rather than the fixed record stride, which
			// would understate how densely packed records fill a page.
			recsPerPage = heapfile.VarRecordsPerPage(estPackedRecordBytes)
		}
	}
	m.SetDataFactor(m.AvgLeafEntries() / recsPerPage)
	m.SetSharedPool(true) // strips of one query share this store's pool
	return m, nil
}

// estPackedRecordBytes is the static average record length the cost
// model assumes for a packed store when no realized pages exist yet: the
// measured average of the compressed encoding on both benchmark datasets
// (~60 B: varint ID + bitmap + delta-coded refs and list, one or two raw
// floats).
const estPackedRecordBytes = 60

// DropCaches flushes and empties all buffer pools (the paper's cold-cache
// methodology).
func (s *Store) DropCaches() error {
	for _, p := range s.pagers() {
		if err := p.DropCache(); err != nil {
			return err
		}
	}
	return nil
}

// ResetStats zeroes all disk-access counters.
func (s *Store) ResetStats() {
	for _, p := range s.pagers() {
		p.ResetStats()
	}
}

// DiskAccesses returns the pages read since the last ResetStats — the
// paper's cost metric.
func (s *Store) DiskAccesses() uint64 {
	var total uint64
	for _, p := range s.pagers() {
		total += p.Stats().Reads
	}
	return total
}

func (s *Store) pagers() []*pager.Pager {
	return []*pager.Pager{s.heapP, s.overP, s.rtP, s.idxP}
}

// AccessBreakdown itemizes the disk accesses since the last ResetStats by
// file: where a query's I/O actually went. LayoutPacked stores keep
// their (rare) overflow chains inside the node heap, so their Overflow
// count is always 0 and chain reads — virtually all buffer-pool hits —
// fold into Data.
type AccessBreakdown struct {
	Data     uint64 // heap-file record pages
	Overflow uint64 // connection-list overflow pages
	Index    uint64 // R*-tree node pages
	IDIndex  uint64 // B+-tree pages (by-ID fetches)
}

// Breakdown returns the per-file disk-access counts.
func (s *Store) Breakdown() AccessBreakdown {
	return AccessBreakdown{
		Data:     s.heapP.Stats().Reads,
		Overflow: s.overP.Stats().Reads,
		Index:    s.rtP.Stats().Reads,
		IDIndex:  s.idxP.Stats().Reads,
	}
}

// recReader is the state one caller reuses across record fetches: the
// heap cursor variable records are decoded under (it keeps the current
// data page pinned while consecutive RIDs stay on it), the copy-out
// buffers fixed records are read into, and the arena that batches the
// decoded nodes' Conn allocations. Whoever makes one releases it when the
// run of fetches ends, on every path.
type recReader struct {
	cur       heapfile.VarCursor // LayoutPacked
	rec, over []byte             // LayoutSTR
	arena     connArena
}

// newRecReader returns a reader over this view's heap, so a session's
// reads are attributed to the session.
func (s *Store) newRecReader() recReader {
	if s.layout == LayoutPacked {
		return recReader{cur: s.vheap.Cursor()}
	}
	return recReader{
		rec:  make([]byte, RecordSize),
		over: make([]byte, OverflowRecordSize),
	}
}

// release unpins the page the cursor holds, if any.
func (rd *recReader) release() { rd.cur.Release() }

// fetchRecord reads and fully decodes the record at rid, following the
// overflow chain when the connection list spills. tr may be nil. Store IDs
// are dense, and everything downstream relies on it (record sets sort on
// 32-bit ID keys): a record whose ID is outside [0, NumNodes()) is
// corruption no checksum-less store would otherwise notice.
func (s *Store) fetchRecord(rid heapfile.RID, rd *recReader, tr *obs.Trace) (Node, error) {
	var n Node
	var err error
	if s.layout == LayoutPacked {
		n, err = s.fetchPackedRecord(rid, rd, tr)
	} else {
		n, err = s.fetchFixedRecord(rid, rd, tr)
	}
	if err == nil && (n.ID < 0 || n.ID >= s.idx.Len()) {
		return Node{}, fmt.Errorf("dm: record %d carries node ID %d, outside [0, %d): corrupt", rid, n.ID, s.idx.Len())
	}
	return n, err
}

// fetchFixedRecord is fetchRecord for LayoutSTR: a RecordSize
// main record, lists beyond ConnInline chained through the overflow file.
func (s *Store) fetchFixedRecord(rid heapfile.RID, rd *recReader, tr *obs.Trace) (Node, error) {
	buf := rd.rec[:RecordSize]
	if err := s.heap.Read(rid, buf); err != nil {
		return Node{}, err
	}
	n, _, total, overflowRef := decodeRecordHeader(buf, &rd.arena)
	if overflowRef != noOverflow {
		tr.Begin(obs.PhaseOverflow)
	}
	// A well-formed chain has at most one record per overflow record in
	// the file; anything longer is a corrupted next-pointer cycle.
	maxSteps := s.over.NumRecords() + 1
	for steps := int64(0); overflowRef != noOverflow; steps++ {
		if steps >= maxSteps {
			tr.End()
			return Node{}, fmt.Errorf("dm: node %d overflow chain longer than %d records (corrupt cycle)", n.ID, maxSteps)
		}
		obuf := rd.over[:OverflowRecordSize]
		if err := s.over.Read(heapfile.RID(overflowRef), obuf); err != nil {
			tr.End()
			return Node{}, fmt.Errorf("dm: overflow chain: %w", err)
		}
		var ids []int64
		ids, overflowRef = decodeOverflow(obuf)
		n.Conn = append(n.Conn, ids...)
		if overflowRef == noOverflow {
			tr.End()
		}
	}
	if len(n.Conn) != total {
		return Node{}, fmt.Errorf("dm: node %d connection list has %d of %d IDs", n.ID, len(n.Conn), total)
	}
	return n, nil
}

// fetchPackedRecord is fetchRecord for LayoutPacked, decoding straight
// from the page the cursor has pinned: one packed record holds the whole
// list in the common case; spilled
// chains live on the owner's own (or immediately preceding) pages and
// are walked with the same cursor, so the overflow span below measures
// page reads the buffer pool almost always absorbs. Every decoder copies
// what it keeps, so nothing of the node aliases the page once the cursor
// moves on.
func (s *Store) fetchPackedRecord(rid heapfile.RID, rd *recReader, tr *obs.Trace) (Node, error) {
	rec, err := rd.cur.Record(rid)
	if err != nil {
		return Node{}, err
	}
	n, total, overflowRef, err := DecodePackedRecord(rec, &rd.arena)
	if err != nil {
		return Node{}, err
	}
	if overflowRef != noOverflow {
		tr.Begin(obs.PhaseOverflow)
	}
	maxSteps := s.vheap.NumRecords() + 1
	for steps := int64(0); overflowRef != noOverflow; steps++ {
		if steps >= maxSteps {
			tr.End()
			return Node{}, fmt.Errorf("dm: node %d overflow chain longer than %d records (corrupt cycle)", n.ID, maxSteps)
		}
		ob, err := rd.cur.Record(heapfile.RID(overflowRef))
		if err != nil {
			tr.End()
			return Node{}, fmt.Errorf("dm: overflow chain: %w", err)
		}
		if len(ob) < 10 {
			tr.End()
			return Node{}, fmt.Errorf("dm: node %d: malformed %d-byte overflow record", n.ID, len(ob))
		}
		var ids []int64
		ids, overflowRef = decodeOverflow(ob)
		n.Conn = append(n.Conn, ids...)
		if overflowRef == noOverflow {
			tr.End()
		}
	}
	if len(n.Conn) != total {
		return Node{}, fmt.Errorf("dm: node %d connection list has %d of %d IDs", n.ID, len(n.Conn), total)
	}
	return n, nil
}

// FetchByID reads one node through the B+-tree (an index probe plus data
// pages), for callers that need point lookups outside range queries.
func (s *Store) FetchByID(id int64) (Node, error) {
	s.tr.Begin(obs.PhaseIDIndex)
	rid, err := s.idx.Get(id)
	s.tr.End()
	if err != nil {
		return Node{}, fmt.Errorf("dm: node %d: %w", id, err)
	}
	rd := s.newRecReader()
	defer rd.release()
	s.tr.Begin(obs.PhaseFetch)
	n, err := s.fetchRecord(heapfile.RID(rid), &rd, s.tr)
	s.tr.End()
	return n, err
}
