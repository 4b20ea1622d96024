package dm

import (
	"fmt"
	"math"

	"dmesh/internal/storage/heapfile"
	"dmesh/internal/storage/pager"
)

// loadNodes materializes every node of an open store, indexed by ID.
// Node IDs are dense (0..N-1, the collapse-sequence numbering), so the
// B+-tree range over them recovers the full table — including overflowed
// connection lists — without any in-memory dataset.
func loadNodes(src *Store) ([]Node, error) {
	n := src.idx.Len()
	nodes := make([]Node, n)
	seen := int64(0)
	rd := src.newRecReader()
	defer rd.release()
	var ferr error
	err := src.idx.Range(math.MinInt64, math.MaxInt64, func(id, rid int64) bool {
		if id < 0 || id >= n {
			ferr = fmt.Errorf("dm: repack: node ID %d outside dense range [0, %d)", id, n)
			return false
		}
		var node Node
		node, ferr = src.fetchRecord(heapfile.RID(rid), &rd, nil)
		if ferr != nil {
			return false
		}
		nodes[id] = node
		seen++
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("dm: repack: scan id index: %w", err)
	}
	if ferr != nil {
		return nil, ferr
	}
	if seen != n {
		return nil, fmt.Errorf("dm: repack: id index yielded %d of %d nodes", seen, n)
	}
	return nodes, nil
}

// Repack rewrites an open store into dir under the layout (and pool
// configuration) in pools — the offline re-layout pass: read every
// record out of src, recompute the physical order, write a fresh store.
// The source is only read; the result is a complete, independently
// openable store directory that answers every query identically (same
// nodes, same connection lists — only page placement changes). With no
// pools.Rungs the result is built for the source's rungs.
func Repack(src *Store, pools StorePools, dir string) (*Store, error) {
	nodes, err := loadNodes(src)
	if err != nil {
		return nil, err
	}
	return buildNodesAt(nodes, src.maxE, src.carryRungs(pools), dir)
}

// carryRungs fills an unset pools.Rungs with this store's.
func (s *Store) carryRungs(pools StorePools) StorePools {
	if pools.Rungs == nil {
		pools.Rungs = s.Rungs()
	}
	return pools
}

// RepackOnBackends is Repack onto caller-supplied backends (heap,
// overflow, r*-tree, id index) instead of a directory; fault-injection
// tests use it to interpose wrappers under the repacked store.
func RepackOnBackends(src *Store, pools StorePools, backends [4]pager.Backend) (*Store, error) {
	nodes, err := loadNodes(src)
	if err != nil {
		return nil, err
	}
	return buildNodes(nodes, src.maxE, src.carryRungs(pools), backends, nil)
}
