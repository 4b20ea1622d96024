package cluster_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"dmesh"
	"dmesh/internal/cluster"
	"dmesh/internal/dm"
	"dmesh/internal/geom"
	"dmesh/internal/tilecache"
	"dmesh/internal/workload"
)

var (
	terrainOnce sync.Once
	terrains    map[string]*dmesh.Terrain
)

// terrain memoizes the two small test terrains; simplification dominates
// test time, so every test shares them (stores are built per test).
func terrain(t *testing.T, name string) *dmesh.Terrain {
	t.Helper()
	terrainOnce.Do(func() {
		terrains = make(map[string]*dmesh.Terrain)
		for _, n := range []string{"highland", "crater"} {
			tr, err := dmesh.Build(dmesh.Config{Dataset: n, Size: 17, Seed: 7})
			if err != nil {
				panic(err)
			}
			terrains[n] = tr
		}
	})
	return terrains[name]
}

// singleNode builds the single-process reference: a tile cache over its
// own store of the same terrain.
func singleNode(t *testing.T, tr *dmesh.Terrain) *tilecache.Cache {
	t.Helper()
	s, err := tr.NewDMStore()
	if err != nil {
		t.Fatal(err)
	}
	s.DropCaches()
	c, err := tr.NewTileCache(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func startLocal(t *testing.T, tr *dmesh.Terrain, shards int) *cluster.LocalCluster {
	t.Helper()
	lc, err := cluster.StartLocal(cluster.LocalConfig{Terrain: tr, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	return lc
}

// canonicalMesh serializes a result into one deterministic byte string:
// vertices sorted by ID, edges low-high then sorted, triangles in canon
// rotation then sorted. Two results with equal canonical bytes are the
// same mesh — the test's "byte-identical" is literal.
func canonicalMesh(res *dm.Result) []byte {
	var buf bytes.Buffer
	ids := make([]int64, 0, len(res.Vertices))
	for id := range res.Vertices {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p := res.Vertices[id]
		binary.Write(&buf, binary.LittleEndian, id)
		binary.Write(&buf, binary.LittleEndian, math.Float64bits(p.X))
		binary.Write(&buf, binary.LittleEndian, math.Float64bits(p.Y))
		binary.Write(&buf, binary.LittleEndian, math.Float64bits(p.Z))
	}
	edges := make([][2]int64, 0, len(res.Edges))
	for _, e := range res.Edges {
		if e[0] > e[1] {
			e[0], e[1] = e[1], e[0]
		}
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	for _, e := range edges {
		binary.Write(&buf, binary.LittleEndian, e)
	}
	tris := make([]geom.Triangle, 0, len(res.Triangles))
	for _, tr := range res.Triangles {
		tris = append(tris, tr.Canon())
	}
	sort.Slice(tris, func(i, j int) bool {
		a, b := tris[i], tris[j]
		if a.A != b.A {
			return a.A < b.A
		}
		if a.B != b.B {
			return a.B < b.B
		}
		return a.C < b.C
	})
	for _, tr := range tris {
		binary.Write(&buf, binary.LittleEndian, [3]int64{tr.A, tr.B, tr.C})
	}
	return buf.Bytes()
}

func randRects(rng *rand.Rand, n int) []geom.Rect {
	out := make([]geom.Rect, n)
	for i := range out {
		w := 0.05 + rng.Float64()*0.7
		h := 0.05 + rng.Float64()*0.7
		x := rng.Float64() * (1 - w)
		y := rng.Float64() * (1 - h)
		out[i] = geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
	}
	return out
}

// TestRingDeterministic pins the ring's placement contract: identical
// shard lists build identical rings (same successor order for every
// key), the order covers each shard exactly once, and construction
// rejects degenerate shard lists.
func TestRingDeterministic(t *testing.T) {
	ids := []string{"http://s0", "http://s1", "http://s2", "http://s3"}
	r1, err := cluster.NewRing(ids)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cluster.NewRing(ids)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(ids))
	for level := 0; level <= 3; level++ {
		n := 1 << level
		for iy := 0; iy < n; iy++ {
			for ix := 0; ix < n; ix++ {
				for band := 0; band < 4; band++ {
					k := tilecache.Key{Level: level, IX: ix, IY: iy, Band: band}.String()
					o1, o2 := r1.Order(k), r2.Order(k)
					if fmt.Sprint(o1) != fmt.Sprint(o2) {
						t.Fatalf("key %s: order %v vs %v across identical rings", k, o1, o2)
					}
					if len(o1) != len(ids) {
						t.Fatalf("key %s: order %v does not cover all shards", k, o1)
					}
					seen := make(map[int]bool)
					for _, s := range o1 {
						if seen[s] {
							t.Fatalf("key %s: shard %d repeated in order %v", k, s, o1)
						}
						seen[s] = true
					}
					counts[o1[0]]++
				}
			}
		}
	}
	// Virtual nodes must spread primaries across every shard: no shard
	// may be starved or own a wild majority.
	total := 0
	for _, c := range counts {
		total += c
	}
	for i, c := range counts {
		frac := float64(c) / float64(total)
		if frac < 0.10 || frac > 0.45 {
			t.Errorf("shard %d owns %.0f%% of keys (counts %v); imbalance too high", i, frac*100, counts)
		}
	}

	if _, err := cluster.NewRing(nil); err == nil {
		t.Error("empty shard list must be rejected")
	}
	if _, err := cluster.NewRing([]string{"a", "a"}); err == nil {
		t.Error("duplicate shard IDs must be rejected")
	}
	if _, err := cluster.NewRing([]string{"a", ""}); err == nil {
		t.Error("empty shard ID must be rejected")
	}
}

// TestClusterExactAgainstSingleNode is the tentpole's acceptance
// property: over random ROIs and LOD bands on both datasets, the
// cluster's fanned-out, wire-decoded, stitched answer is byte-identical
// (canonical encoding) to the single-node tile cache's — and the
// snapped LOD agrees.
func TestClusterExactAgainstSingleNode(t *testing.T) {
	for _, name := range []string{"highland", "crater"} {
		tr := terrain(t, name)
		lc := startLocal(t, tr, 3)
		ref := singleNode(t, tr)

		ladder := lc.Router.Grid().Ladder()
		rng := rand.New(rand.NewSource(99))
		rects := randRects(rng, 12)
		rects = append(rects,
			geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1},
			geom.Rect{MinX: 0.25, MinY: 0.25, MaxX: 0.75, MaxY: 0.75},
			geom.Rect{MinX: 0.5, MinY: 0.5, MaxX: 0.5, MaxY: 0.5},
		)
		for i, r := range rects {
			e := ladder[rng.Intn(len(ladder))]
			label := fmt.Sprintf("%s[%d]", name, i)
			got, st, err := lc.Router.Query(r, e)
			if err != nil {
				t.Fatalf("%s: cluster query: %v", label, err)
			}
			want, qs, err := ref.Query(r, e)
			if err != nil {
				t.Fatalf("%s: single node: %v", label, err)
			}
			if st.SnappedE != qs.SnappedE {
				t.Fatalf("%s: snapped %g vs single node %g", label, st.SnappedE, qs.SnappedE)
			}
			if !bytes.Equal(canonicalMesh(got), canonicalMesh(want)) {
				t.Fatalf("%s: cluster mesh differs from single node (%d vs %d vertices)",
					label, len(got.Vertices), len(want.Vertices))
			}
		}

		// Every shard quantizes like the router (the /gridinfo contract).
		g := lc.Router.Grid()
		for i, s := range lc.Servers {
			sg := s.Grid()
			if sg.MaxLevel() != g.MaxLevel() || sg.DataRect() != g.DataRect() ||
				fmt.Sprint(sg.Ladder()) != fmt.Sprint(g.Ladder()) {
				t.Errorf("%s: shard %d grid differs from router grid", name, i)
			}
		}
	}
}

// TestClusterExactWithShardDown re-runs the exactness property with one
// shard fail-stopped: answers stay byte-identical to the single node
// (served via replicas), retries stay bounded, and the error counters
// account for every redirected tile.
func TestClusterExactWithShardDown(t *testing.T) {
	for _, name := range []string{"highland", "crater"} {
		tr := terrain(t, name)
		lc := startLocal(t, tr, 3)
		ref := singleNode(t, tr)
		lc.KillShard(1)

		ladder := lc.Router.Grid().Ladder()
		rng := rand.New(rand.NewSource(7))
		var redirects, attempts, tiles int
		for i, r := range randRects(rng, 10) {
			e := ladder[rng.Intn(len(ladder))]
			label := fmt.Sprintf("%s[%d]", name, i)
			got, st, err := lc.Router.Query(r, e)
			if err != nil {
				t.Fatalf("%s: cluster query with shard down: %v", label, err)
			}
			want, _, err := ref.Query(r, e)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(canonicalMesh(got), canonicalMesh(want)) {
				t.Fatalf("%s: wrong answer with shard down", label)
			}
			if st.Attempts > st.Tiles*2 {
				t.Errorf("%s: %d attempts for %d tiles; retries not bounded by the one dead shard",
					label, st.Attempts, st.Tiles)
			}
			if st.Attempts-st.Tiles != st.Redirected {
				t.Errorf("%s: %d extra attempts but %d redirects", label, st.Attempts-st.Tiles, st.Redirected)
			}
			redirects += st.Redirected
			attempts += st.Attempts
			tiles += st.Tiles
		}
		if redirects == 0 {
			t.Errorf("%s: no tile was ever routed to the dead shard; kill not exercised", name)
		}
		reg := lc.Router.Registry()
		errs := reg.Counter("cluster_router_shard_errors_total", "").Value()
		reds := reg.Counter("cluster_router_redirects_total", "").Value()
		if int(reds) != redirects {
			t.Errorf("%s: redirect counter %d != observed %d", name, reds, redirects)
		}
		if errs != reds {
			t.Errorf("%s: %d shard errors but %d redirects; every failure must be accounted a redirect",
				name, errs, reds)
		}
	}
}

// TestFailoverMidHotSpot is the satellite's failover drill: concurrent
// HotSpot clients, hot tiles replicated onto 2 shards, one shard killed
// mid-run. Zero wrong answers (byte-identical to the single node), zero
// failed queries, bounded retries, and the obs counters account for
// every redirected request.
func TestFailoverMidHotSpot(t *testing.T) {
	tr := terrain(t, "highland")
	lc := startLocal(t, tr, 3)
	ref := singleNode(t, tr)

	hs := workload.HotSpot{Clients: 4, PerClient: 8, AreaFrac: 0.05, Seed: 21}
	clients := hs.ROIs()
	ladder := lc.Router.Grid().Ladder()
	band := len(ladder) / 2
	e := ladder[band]

	// Precompute the single-node reference for every distinct ROI.
	want := make(map[geom.Rect][]byte)
	for _, qs := range clients {
		for _, r := range qs {
			if _, ok := want[r]; !ok {
				res, _, err := ref.Query(r, e)
				if err != nil {
					t.Fatal(err)
				}
				want[r] = canonicalMesh(res)
			}
		}
	}

	// Epoch 0 warms the primaries, then hot tiles replicate onto R=2.
	for _, qs := range clients {
		for _, r := range qs[:2] {
			if _, _, err := lc.Router.Query(r, e); err != nil {
				t.Fatalf("warmup: %v", err)
			}
		}
	}
	rb, err := lc.Router.Rebalance(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rb.HotKeys == 0 || rb.Replicated == 0 {
		t.Fatalf("rebalance replicated nothing: %+v", rb)
	}

	run := func(phase string, lo, hi int) (attempts, tiles, redirected int) {
		t.Helper()
		var mu sync.Mutex
		var wg sync.WaitGroup
		for ci := range clients {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				for _, r := range clients[ci][lo:hi] {
					res, st, err := lc.Router.Query(r, e)
					if err != nil {
						t.Errorf("%s: client %d: query failed: %v", phase, ci, err)
						return
					}
					if !bytes.Equal(canonicalMesh(res), want[r]) {
						t.Errorf("%s: client %d: WRONG ANSWER for %v", phase, ci, r)
						return
					}
					if st.Attempts > st.Tiles*2 {
						t.Errorf("%s: client %d: %d attempts for %d tiles", phase, ci, st.Attempts, st.Tiles)
					}
					mu.Lock()
					attempts += st.Attempts
					tiles += st.Tiles
					redirected += st.Redirected
					mu.Unlock()
				}
			}(ci)
		}
		wg.Wait()
		return
	}

	preA, preT, preR := run("pre-kill", 2, 5)
	if preA != preT+preR {
		t.Errorf("pre-kill: attempts %d != tiles %d + redirects %d", preA, preT, preR)
	}

	errsBefore := lc.Router.Registry().Counter("cluster_router_shard_errors_total", "").Value()
	lc.KillShard(2)
	postA, postT, postR := run("post-kill", 5, 8)
	if postR == 0 {
		t.Error("post-kill: no redirects — the dead shard owned nothing? (should be ~1/3 of keys)")
	}
	if postA != postT+postR {
		t.Errorf("post-kill: attempts %d != tiles %d + redirects %d", postA, postT, postR)
	}

	// Accounting: every post-kill shard error produced exactly one
	// redirect (only one shard is dead, so the second candidate wins).
	reg := lc.Router.Registry()
	errs := reg.Counter("cluster_router_shard_errors_total", "").Value() - errsBefore
	reds := reg.Counter("cluster_router_redirects_total", "").Value()
	if int(reds) != preR+postR {
		t.Errorf("redirect counter %d != observed %d", reds, preR+postR)
	}
	if errs != uint64(postR) {
		t.Errorf("%d post-kill shard errors but %d post-kill redirects", errs, postR)
	}
}

// TestRebalanceDeterministicAndWarm checks the replication policy: the
// global hot ranking is deterministic (two passes pick the same keys),
// replicas actually hold the tiles afterwards (a second pass costs zero
// warm DA), and R is clamped to the cluster size.
func TestRebalanceDeterministicAndWarm(t *testing.T) {
	tr := terrain(t, "highland")
	lc := startLocal(t, tr, 3)

	ladder := lc.Router.Grid().Ladder()
	e := ladder[len(ladder)/2]
	hs := workload.HotSpot{Clients: 3, PerClient: 6, AreaFrac: 0.05, Seed: 5}
	for _, qs := range hs.ROIs() {
		for _, r := range qs {
			if _, _, err := lc.Router.Query(r, e); err != nil {
				t.Fatal(err)
			}
		}
	}

	rb1, err := lc.Router.Rebalance(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rb1.HotKeys == 0 {
		t.Fatal("no hot keys after a skewed workload")
	}
	if rb1.Replicated != rb1.HotKeys {
		t.Errorf("replicated %d warm-ups for %d hot keys with R=2; want one replica each",
			rb1.Replicated, rb1.HotKeys)
	}
	// Second pass: same ranking, and the replicas are already resident,
	// so warming them again must cost no store I/O.
	rb2, err := lc.Router.Rebalance(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rb2.HotKeys != rb1.HotKeys {
		t.Errorf("hot-key count changed across identical passes: %d vs %d", rb1.HotKeys, rb2.HotKeys)
	}
	if rb2.WarmDA != 0 {
		t.Errorf("second rebalance cost %d DA; replicas were not retained", rb2.WarmDA)
	}

	// R beyond the cluster clamps instead of failing.
	if _, err := lc.Router.Rebalance(6, 99); err != nil {
		t.Errorf("oversized R: %v", err)
	}
}
