package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dmesh"
	"dmesh/internal/dm"
	"dmesh/internal/tilecache"
)

// reference is the oracle: an in-memory store of its own, so that
// checking answers never warms or counts against the stores under test.
type reference struct {
	terrain *dmesh.Terrain
	store   *dmesh.DMStore
	model   *dmesh.CostModel
	grid    *tilecache.Grid
}

func newReference(t *dmesh.Terrain) (*reference, error) {
	store, err := t.NewDMStore()
	if err != nil {
		return nil, err
	}
	model, err := dmesh.NewCostModel(store)
	if err != nil {
		return nil, err
	}
	ds := store.DataSpace()
	grid, err := tilecache.NewGrid(dmesh.NewRect(ds.MinX, ds.MinY, ds.MaxX, ds.MaxY), 0, t.DefaultLODLadder())
	if err != nil {
		return nil, err
	}
	return &reference{terrain: t, store: store, model: model, grid: grid}, nil
}

// legStats is what one leg (serial: 1 client; concurrent: C clients)
// measured. The figures are taken over the whole leg; the per-round
// split is what their standard error is estimated from. Latencies and
// walls are at reference host speed.
type legStats struct {
	lat      [][]float64 // per round: latency of every verified op, ms
	first    [][]float64 // per round: time to first mesh, ms
	wall     []float64   // per round: seconds the clients were running
	probes   []float64   // serial leg: every op's host-speed probe, ms
	ops      int
	failed   int
	verified int

	da                    uint64
	wire                  int64
	allocObjs, allocBytes uint64 // serial leg: allocations while an op was in flight
	redirected            int
	frames, fullFrames    int
	retained, fetched     int
	frameDA               uint64
	phases                map[string]time.Duration
}

// runner drives one workload's legs and checks every answer.
type runner struct {
	w      *workloadDef
	sys    *system
	ref    *reference
	log    io.Writer
	errors int // error lines printed so far
}

func (r *runner) complain(format string, args ...any) {
	if r.errors++; r.errors <= 5 {
		fmt.Fprintf(r.log, "FAIL "+format+"\n", args...)
	}
}

type issued struct {
	o     op
	a     answer
	lat   time.Duration
	probe float64 // serial leg: the host-speed probe taken before the op, ms
	verr  error   // set by verify: why the op failed, nil if the answer is exact
}

var allocSamples = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes"}

func readAllocs(s []metrics.Sample) (objs, bytes uint64) {
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// leg runs rounds x perRound ops per client, closed loop: a client sends
// its next op only when it holds the previous answer. Answers are kept
// for the round and checked against the oracle between rounds, off the
// clock and outside the allocation window.
func (r *runner) leg(streams [][]op, names []string, rounds, perRound int, traced bool) *legStats {
	serial := len(streams) == 1
	st := &legStats{phases: make(map[string]time.Duration)}
	samples := make([]metrics.Sample, len(allocSamples))
	for i, n := range allocSamples {
		samples[i].Name = n
	}
	// issue runs one op on the clock, with the off-clock prologue the
	// serial leg owes it (cold caches, the host-speed probe).
	issue := func(client string, o op) issued {
		var probe float64
		if serial {
			if r.w.before != nil {
				if err := r.w.before(r.sys); err != nil {
					return issued{o: o, a: answer{err: err}}
				}
			}
			probe = r.sys.host.probe()
		}
		t0 := time.Now()
		a := r.w.do(r.sys, client, o, traced)
		return issued{o: o, a: a, lat: time.Since(t0), probe: probe}
	}
	for round := 0; round < rounds; round++ {
		// Start every round from a collected heap: the garbage the
		// previous round's checking made is not this round's to pay for.
		runtime.GC()
		kept := make([][]issued, len(streams))
		run := func() {
			var wg sync.WaitGroup
			for c := range streams {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					ops := streams[c][round*perRound : (round+1)*perRound]
					kept[c] = make([]issued, 0, len(ops))
					for _, o := range ops {
						// Process-wide counters: only meaningful with one
						// client, where nothing else allocates meanwhile. The
						// prologue's allocations are the harness's, a small
						// constant next to an op's; the probe makes none.
						var o0, b0 uint64
						if serial {
							o0, b0 = readAllocs(samples)
						}
						is := issue(fmt.Sprintf("%s.%d", names[c], round), o)
						if serial {
							o1, b1 := readAllocs(samples)
							st.allocObjs += o1 - o0
							st.allocBytes += b1 - b0
						}
						kept[c] = append(kept[c], is)
					}
				}(c)
			}
			wg.Wait()
		}
		// The host speed the round is read against: op by op in the serial
		// leg, where the one client can probe before every op; either side
		// of the round in the concurrent leg, where the clients share the
		// CPUs with nothing else.
		var wall, roundSpeed float64
		var perOp []float64
		if serial {
			start := time.Now()
			run()
			wall = time.Since(start).Seconds()
			probes := make([]float64, len(kept[0]))
			for i := range kept[0] {
				probes[i] = kept[0][i].probe
			}
			perOp = speeds(probes)
			roundSpeed = ratio(probeRefMs, median(probes))
			st.probes = append(st.probes, probes...)
		} else {
			wall, roundSpeed = r.sys.host.around(run)
		}
		st.wall = append(st.wall, wall*roundSpeed)
		r.verify(kept)
		var lat, first []float64
		for c := range kept {
			for i := range kept[c] {
				if is := &kept[c][i]; r.fold(st, is) {
					speed := roundSpeed
					if serial {
						speed = perOp[i]
					}
					lat = append(lat, msOf(is.lat)*speed)
					if is.a.first == 0 {
						is.a.first = is.lat
					}
					first = append(first, msOf(is.a.first)*speed)
				}
			}
		}
		st.lat = append(st.lat, lat)
		st.first = append(st.first, first)
	}
	return st
}

// verify checks a round's answers against the oracle, off the clock, on
// as many goroutines as there are CPUs: decode, direct query on the
// reference store, canonical comparison.
func (r *runner) verify(kept [][]issued) {
	var all []*issued
	for c := range kept {
		for i := range kept[c] {
			all = append(all, &kept[c][i])
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(all) {
					return
				}
				all[i].verr = r.check(all[i])
			}
		}()
	}
	wg.Wait()
}

// check compares one answer with the direct query at the LOD the
// program served, in the canonical serialization.
func (r *runner) check(is *issued) error {
	a := &is.a
	if a.err != nil {
		return a.err
	}
	mesh, jm, err := a.decode()
	if err != nil {
		return err
	}
	a.body, a.json = nil, jm // the body is checked; keep only its accounting
	if jm != nil {
		a.da = jm.DiskAccesses
	}
	want, err := r.w.oracle(r.ref, is.o)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if !sameMesh(mesh, want, r.w.edges) {
		return fmt.Errorf("answer differs from the direct query (%d/%d vertices, %d/%d triangles)",
			len(mesh.Vertices), len(want.Vertices), len(mesh.Triangles), len(want.Triangles))
	}
	return nil
}

// fold adds one checked answer's counters to st. It reports whether the
// op succeeded; a failed op has no latency sample, it is counted in
// failed instead.
func (r *runner) fold(st *legStats, is *issued) bool {
	st.ops++
	if is.verr != nil {
		st.failed++
		r.complain("op %+v: %v", is.o, is.verr)
		return false
	}
	a := &is.a
	if jm := a.json; jm != nil && jm.Session != "" {
		st.frames++
		if jm.Full {
			st.fullFrames++
		}
		st.retained += jm.Retained
		st.fetched += jm.Fetched
		st.frameDA += jm.DiskAccesses
	}
	st.verified++
	st.da += a.da
	st.wire += int64(a.wire)
	st.redirected += a.redirected
	for p, d := range a.phases {
		st.phases[p] += d
	}
	return true
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs (nearest rank on the sorted
// copy); 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func flatten(rounds [][]float64) []float64 {
	var out []float64
	for _, r := range rounds {
		out = append(out, r...)
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// perRound maps each round's samples through f.
func perRound(rounds [][]float64, f func([]float64) float64) []float64 {
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		out[i] = f(r)
	}
	return out
}

// spread is (max - min) / median of xs.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range xs {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return (hi - lo) / m
}

// twoSE is two standard errors of the mean of xs.
func twoSE(xs []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	m := mean(xs)
	var ss float64
	for _, v := range xs {
		ss += (v - m) * (v - m)
	}
	return 2 * math.Sqrt(ss/(n-1)) / math.Sqrt(n)
}

// resolution is the smallest relative change in a whole-leg figure that
// two independent runs like this one can tell from noise: two standard
// errors of their difference, with the standard error taken by batch means
// over the rounds. Rounds run different ops, so this counts input sampling
// as well as time noise: it is what a lone run can say of itself, and
// more than a comparison of two runs of one seed has to allow for (see
// pairedNoise).
func resolution(figures []float64) float64 {
	return math.Sqrt2 * ratio(twoSE(figures), mean(figures))
}

// pairedNoise is the noise of a comparison of two runs of one seed and
// plan: two standard errors of the mean relative difference between their
// figures, round by round. Round i ran the same ops in both, so the
// differences carry the time noise between the runs and none of the input
// sampling that separates one round from the next.
func pairedNoise(base, cand []float64) float64 {
	if len(base) != len(cand) {
		return 0
	}
	diffs := make([]float64, len(base))
	for i := range base {
		diffs[i] = ratio(cand[i]-base[i], base[i])
	}
	return twoSE(diffs)
}

// sameMesh compares two answers in the canonical serialization. JSON
// answers carry no edges, so those are compared without.
func sameMesh(got, want *dm.Result, edges bool) bool {
	if !edges {
		g, w := *got, *want
		g.Edges, w.Edges = nil, nil
		got, want = &g, &w
	}
	return bytes.Equal(dm.CanonicalMesh(got), dm.CanonicalMesh(want))
}
