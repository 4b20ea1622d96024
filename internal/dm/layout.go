package dm

import (
	"container/heap"
	"sort"

	"dmesh/internal/geom"
	"dmesh/internal/storage/heapfile"
)

// connectBands is how many LOD bands the connectivity-clustered packing
// pass partitions the nodes into. Connection lists link similar-LOD
// nodes, so banding by LOD puts a node on pages with the nodes it can
// actually be connected to; 16 bands keeps each band's Hilbert run long
// enough for spatial clustering to still matter within it.
const connectBands = 16

// connectSizer returns the realized on-disk lengths of one node's records
// under LayoutConnect: the overflow-record lengths in write (tail-first)
// order appended to ov, and the owner record's length — exact-length
// records of 8-byte IDs, raw overflow chunks beyond the page-bounded
// inline capacity. The greedy page fill consults it so its page-roll
// simulation tracks the actual encoded sizes.
func connectSizer(n *Node, ov []int) (ovLens []int, recLen int) {
	ov = ov[:0]
	inline := connectInline(len(n.Conn))
	if rest := len(n.Conn) - inline; rest > 0 {
		for start := ((rest - 1) / connectOverflowFanout) * connectOverflowFanout; start >= 0; start -= connectOverflowFanout {
			end := start + connectOverflowFanout
			if end > rest {
				end = rest
			}
			ov = append(ov, 10+(end-start)*8)
		}
	}
	return ov, connectRecordLen(inline)
}

// connectOrder computes the physical record order of the connectivity-
// clustered layout (LayoutConnect): Hilbert order within LOD bands
// (coarse bands first, matching query planes that always include the
// coarse levels), refined by a greedy page-fill that pulls a node's
// connection-list neighbors onto its page while they fit
// (Dillabaugh-style graph blocking: path-traversal neighbors share
// pages). All tie-breaks are total orders on node ID, so the order — and
// therefore the on-disk layout — is deterministic.
func connectOrder(nodes []Node) []int64 {
	n := len(nodes)
	if n == 0 {
		return nil
	}

	// LOD bands by EHigh quantile, coarse first. EHigh rather than ELow so
	// the root band (infinite tops) is band 0; quantiles rather than value
	// ranges so bands are equally populated regardless of the error
	// distribution.
	byE := make([]int64, n)
	for i := range byE {
		byE[i] = int64(i)
	}
	sort.Slice(byE, func(a, b int) bool {
		ea, eb := nodes[byE[a]].EHigh, nodes[byE[b]].EHigh
		if ea != eb {
			return ea > eb
		}
		return byE[a] < byE[b]
	})
	band := make([]int32, n)
	for rank, id := range byE {
		band[id] = int32(rank * connectBands / n)
	}
	hk := make([]uint64, n)
	for i := range nodes {
		hk[i] = geom.HilbertKey(nodes[i].Pos.XY())
	}

	// The base order: (band, Hilbert key, ID) ascending. The greedy fill
	// below seeds each page from this order and prefers connection
	// neighbors by the same key, so deviations from the base order only
	// ever pull related records closer together.
	seed := make([]int64, n)
	copy(seed, byE)
	sort.Slice(seed, func(a, b int) bool {
		return connectLess(band, hk, seed[a], seed[b])
	})

	order := make([]int64, 0, n)
	placed := make([]bool, n)
	var sim heapfile.VarPageSim
	var ovScratch []int
	h := &connHeap{band: band, hk: hk}

	// place appends id to the order and simulates its on-disk records
	// (overflow chain tail-first, then the owner — exactly the write
	// sequence), reporting whether any of them started a fresh page.
	place := func(id int64) (newPage bool) {
		placed[id] = true
		order = append(order, id)
		var recLen int
		ovScratch, recLen = connectSizer(&nodes[id], ovScratch)
		for _, l := range ovScratch {
			if sim.Add(l) {
				newPage = true
			}
		}
		if sim.Add(recLen) {
			newPage = true
		}
		return newPage
	}
	pushNeighbors := func(id int64) {
		for _, c := range nodes[id].Conn {
			// Synthetic fixtures may carry out-of-range IDs; skip them, and
			// skip already-placed neighbors (the heap also re-checks on pop).
			if c >= 0 && c < int64(n) && !placed[c] {
				heap.Push(h, c)
			}
		}
	}

	cursor := 0
	for len(order) < n {
		// Next node: the best unplaced connection neighbor of the current
		// page's residents, else the next seed node (a fresh cluster).
		id := int64(-1)
		for h.Len() > 0 {
			if c := heap.Pop(h).(int64); !placed[c] {
				id = c
				break
			}
		}
		if id < 0 {
			for placed[seed[cursor]] {
				cursor++
			}
			id = seed[cursor]
		}
		if place(id) {
			// A fresh page: locality restarts from the node that now lives
			// on it, so candidates queued for the previous page are stale.
			h.ids = h.ids[:0]
		}
		pushNeighbors(id)
	}
	return order
}

// connectLess is the packing pass's total order: LOD band, then Hilbert
// key, then node ID.
func connectLess(band []int32, hk []uint64, a, b int64) bool {
	if band[a] != band[b] {
		return band[a] < band[b]
	}
	if hk[a] != hk[b] {
		return hk[a] < hk[b]
	}
	return a < b
}

// connHeap is a min-heap of candidate node IDs ordered by connectLess.
// Duplicate pushes are fine: pops re-check placement (lazy deletion).
type connHeap struct {
	band []int32
	hk   []uint64
	ids  []int64
}

func (h *connHeap) Len() int           { return len(h.ids) }
func (h *connHeap) Less(i, j int) bool { return connectLess(h.band, h.hk, h.ids[i], h.ids[j]) }
func (h *connHeap) Swap(i, j int)      { h.ids[i], h.ids[j] = h.ids[j], h.ids[i] }
func (h *connHeap) Push(x interface{}) { h.ids = append(h.ids, x.(int64)) }
func (h *connHeap) Pop() interface{} {
	last := h.ids[len(h.ids)-1]
	h.ids = h.ids[:len(h.ids)-1]
	return last
}
