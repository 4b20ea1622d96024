// Package cluster is the horizontally sharded tile-serving tier: a
// deterministic consistent-hash ring partitions the canonical tilecache
// key space across N shard servers (each an internal/serve.Server), a
// stdlib-only router answers ROI queries by fanning per-tile requests
// out to the owning shards and stitching the returned wire patches with
// dm.StitchTiles, hot tiles are replicated onto R ring successors using
// the caches' per-tile hit stats, and a failed shard is survived by
// retrying the next replica (fail-stop model, bounded attempts).
//
// The partitioning trick is the HTM paper's: hierarchical cell IDs as
// shard keys. A tile key's canonical spelling (Key.String, "L/IY/IX/B")
// is hashed with FNV-1a onto a ring of virtual nodes, so every router
// and every shard — any process holding the same shard ID list —
// computes the same placement with no coordination.
//
// Every shard holds a complete DM store built from the shared terrain
// (shared-storage model), so correctness never depends on placement:
// any shard can materialize any tile, and the ring only decides whose
// cache pays for it. That is what makes failover trivial — a redirected
// request is just a cold(er) cache, never a wrong answer.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// defaultVNodes is the virtual-node count per shard; 64 keeps the
// per-shard load imbalance under a few percent for small clusters.
const defaultVNodes = 64

type ringPoint struct {
	hash  uint64
	shard int // index into the shard ID list
	vnode int
}

// Ring is an immutable consistent-hash ring over a fixed shard list.
// Construction is deterministic: the same IDs and vnode count always
// produce the same ring, whatever order maps iterate in.
type Ring struct {
	ids    []string
	points []ringPoint
}

// NewRing builds a ring with vnodes virtual nodes per shard (0 selects
// the default). Shard IDs must be non-empty and unique: they are the
// hashed identity, so a duplicate would silently merge two shards.
func NewRing(ids []string, vnodes int) (*Ring, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one shard")
	}
	if vnodes == 0 {
		vnodes = defaultVNodes
	}
	if vnodes < 0 {
		return nil, fmt.Errorf("cluster: negative vnode count")
	}
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		if id == "" {
			return nil, fmt.Errorf("cluster: empty shard ID")
		}
		if seen[id] {
			return nil, fmt.Errorf("cluster: duplicate shard ID %q", id)
		}
		seen[id] = true
	}
	r := &Ring{
		ids:    append([]string(nil), ids...),
		points: make([]ringPoint, 0, len(ids)*vnodes),
	}
	for si, id := range r.ids {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:  hash64(fmt.Sprintf("%s#%d", id, v)),
				shard: si,
				vnode: v,
			})
		}
	}
	// Total order on (hash, shard, vnode): hash collisions between
	// distinct vnodes get a deterministic tie-break instead of an
	// iteration-order one.
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		if a.shard != b.shard {
			return a.shard < b.shard
		}
		return a.vnode < b.vnode
	})
	return r, nil
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is a splitmix64-style finalizer. FNV-1a avalanches weakly on the
// short, structured strings hashed here (tile keys, "id#vnode"), which
// clusters ring positions and skews the shard balance badly; the
// finalizer restores uniform dispersion while staying deterministic.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// IDs returns the shard identity list in construction order.
func (r *Ring) IDs() []string { return append([]string(nil), r.ids...) }

// Order returns every shard index in the key's ring-successor order:
// element 0 is the primary owner, element 1 the first replica target,
// and so on — the failover and replication sequence for the key.
func (r *Ring) Order(key string) []int {
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]int, 0, len(r.ids))
	seen := make([]bool, len(r.ids))
	for i := 0; i < len(r.points) && len(out) < len(r.ids); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, p.shard)
		}
	}
	return out
}
