package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"dmesh"
	"dmesh/internal/geom"
	"dmesh/internal/workload"
)

// op is one client request, described the way a client would state it:
// a region of interest and LOD percentiles. The program never sees a
// workload name, only these.
type op struct {
	ROI geom.Rect
	// Pct is the LOD percentile of a uniform query.
	Pct float64
	// Near > 0 makes the op viewpoint-dependent. With Angle > 0 the plane
	// is workload.PlaneFor(ROI, lod(Near), MaxLOD, Angle), the paper's
	// parameterization; otherwise it runs from lod(Near) to lod(Far)
	// along y, which is what /frame builds from its near and far values.
	Near, Far, Angle float64
}

func (o op) viewDependent() bool { return o.Near > 0 }

// uniformPct is the LOD percentile a uniform-LOD layer is probed at on
// this op's input: its own, or the near edge of its plane.
func (o op) uniformPct() float64 {
	if o.viewDependent() {
		return o.Near
	}
	return o.Pct
}

// plane resolves a viewpoint-dependent op against the terrain's LODs.
func (o op) plane(t *dmesh.Terrain) geom.QueryPlane {
	if o.Angle > 0 {
		return workload.PlaneFor(o.ROI, t.LODPercentile(o.Near), t.MaxLOD(), o.Angle)
	}
	return geom.QueryPlane{R: o.ROI, EMin: t.LODPercentile(o.Near), EMax: t.LODPercentile(o.Far), Axis: 1}
}

// plan is how much of each leg a run executes. The counts are fixed, not
// durations, so that every counter repeats exactly for a (workload, seed).
type plan struct {
	Warm      int `json:"warm"`       // warm-up ops, part of set-up
	Rounds    int `json:"rounds"`     // rounds per leg
	Round     int `json:"round"`      // serial-leg ops per round
	ConcRound int `json:"conc_round"` // concurrent-leg ops per client per round
	Clients   int `json:"clients"`    // concurrent-leg clients
	Traced    int `json:"traced"`     // traced-leg ops (traced pass only)
	Probes    int `json:"probes"`     // traced ops that also run the other layers' pipelines
}

// inputs is everything a run feeds the program, a pure function of
// (workload, seed, plan).
type inputs struct {
	warm   []op
	serial []op
	traced []op
	conc   [][]op
}

// The generators below do what workload.HotSpot.ROIs and workload.ROIs
// do, with less spread from seed to seed. The consumer of that is the
// driver: it accepts the benchmark only if, over ten runs on ten seeds,
// the interquartile range of every end-to-end metric stays within the
// metric's bound, and it compares later commits by medians over seeds.
// (-compare refuses runs of different seeds and needs none of it.) With
// the library generators' independent draws allocs_per_op spread 5-12%
// over ten seeds, against a bound of 6%; with these, at most 1.7%.

// hotSpotROIs is the workload.HotSpot{Spots: 3, HotFrac: 0.9, AreaFrac:
// 0.04} traffic shape, stratified: nine ops in ten land jittered (by up
// to half the ROI side per axis) around one of three hot centres, taken
// in turn; every tenth is uniform over the data space. The centres are
// workload.HotSpot's for Seed 1 whatever the run seed: they are where the
// popular terrain is, and moving them would change the working set and
// the mesh density, so that no two seeds' figures could be compared. The
// seed draws the offsets, one per cell of a lattice over the jitter
// square, so a run's queries cover each hot area evenly.
func hotSpotROIs(seed int64, n int) []geom.Rect {
	const side, spots = 0.2, 3
	centers := workload.HotSpot{Spots: spots, Seed: 1}.Centers()
	nUniform := n / 10
	perSpot := (n-nUniform)/spots + 1
	// Offsets are stratified placements of a zero-area ROI over the unit
	// square, mapped onto [-side/2, side/2]^2.
	var offsets [spots][]geom.Rect
	for sp := range offsets {
		offsets[sp] = stratifiedROIs(seed*8+int64(sp), seed*8+int64(sp), perSpot, 0, 1)
	}
	uniform := stratifiedROIs(seed*8+spots, seed*8+spots, nUniform+1, side*side, 1)
	out := make([]geom.Rect, n)
	hot := 0
	for i := range out {
		if i%10 == 9 {
			out[i] = uniform[i/10]
			continue
		}
		off := offsets[hot%spots][hot/spots]
		c := centers[hot%spots]
		hot++
		r := geom.RectAround(geom.Point2{X: c.X + (off.MinX-0.5)*side, Y: c.Y + (off.MinY-0.5)*side}, side, side)
		// Keep the ROI inside the unit square by sliding it, as
		// workload.HotSpot does.
		dx := math.Max(0, -r.MinX) - math.Max(0, r.MaxX-1)
		dy := math.Max(0, -r.MinY) - math.Max(0, r.MaxY-1)
		out[i] = geom.Rect{MinX: r.MinX + dx, MinY: r.MinY + dy, MaxX: r.MaxX + dx, MaxY: r.MaxY + dy}
	}
	return out
}

func genInputs(name string, seed int64, p plan) (inputs, error) {
	serialN := p.Rounds * p.Round
	concN := p.Rounds * p.ConcRound
	var in inputs
	// gen draws one client's op list; streams 0, 1, 2 are the warm-up, the
	// serial leg and the traced leg, 3 and up the concurrent clients.
	var gen func(stream int64, n int) []op
	switch name {
	case "hot_patch", "progressive_stream":
		pct := 0.95
		if name == "progressive_stream" {
			pct = 0.80
		}
		gen = func(stream int64, n int) []op {
			rois := hotSpotROIs(seed*64+stream, n)
			out := make([]op, n)
			for i := range out {
				out[i] = op{ROI: rois[i], Pct: pct}
			}
			return out
		}
	case "cold_direct":
		// Area x LOD x kind has period 18: i%3 and (i/3)%3 walk the nine
		// (area, LOD) classes, and 9 is odd, so i%2 flips the kind on the
		// second pass.
		areas := []float64{0.01, 0.04, 0.16}
		pcts := []float64{0.5, 0.9, 0.99}
		gen = func(stream int64, n int) []op {
			var rois [3][]geom.Rect
			for a, area := range areas {
				s := seed*64 + stream*3 + int64(a)
				rois[a] = stratifiedROIs(s, s, n/3+1, area, 1)
			}
			out := make([]op, n)
			for i := range out {
				o := op{ROI: rois[i%3][i/3], Pct: pcts[(i/3)%3]}
				if i%2 == 1 {
					o.Near, o.Angle = 0.75, 0.5
				}
				out[i] = o
			}
			return out
		}
	case "churn_tile":
		// What the cache does depends on the order tile keys are asked
		// for, and with equally popular tiles of very different sizes that
		// dependence is chaotic: reshuffling the same ROIs moves the hit
		// ratio by +-4 points and every cost with it. So the visiting order
		// is part of the scenario, fixed per client, and the seed draws
		// where in its lattice cell each ROI falls. The lattice is a
		// multiple of 16 wide: a cell (0.8/k) then never straddles a tile
		// boundary (0.25) at either edge of the 0.2-wide ROI, so every
		// seed sends the cache the same key trace while no two seeds ask
		// for the same mesh.
		pcts := []float64{0.80, 0.90, 0.95, 0.99}
		gen = func(stream int64, n int) []op {
			rois := stratifiedROIs(stream, seed*64+stream, n, 0.04, 16)
			out := make([]op, n)
			for i := range out {
				out[i] = op{ROI: rois[i], Pct: pcts[i%len(pcts)]}
			}
			return out
		}
	case "flyover_frame":
		// Every round of every client flies a fresh path in a session of
		// its own. One long path would do for coherence, but its lateral
		// drift is a random walk that ends up anywhere on the terrain, and
		// mesh density follows it: every count would swing by 10% from
		// seed to seed. Five short walks from the centre stay near it.
		path := func(stream int64, n int) []op {
			planes := workload.CameraPath{
				Frames: max(n, 1), ViewWidth: 0.4, ViewHeight: 0.3,
				Overlap: 0.9, Drift: 0.05, Axis: 1, Seed: seed*4096 + stream,
			}.Planes()
			out := make([]op, n)
			for i := range out {
				out[i] = op{ROI: planes[i].R, Near: 0.75, Far: 0.99}
			}
			return out
		}
		in.warm = path(0, p.Warm)
		in.traced = path(1, p.Traced)
		for round := 0; round < p.Rounds; round++ {
			in.serial = append(in.serial, path(int64(64+round), p.Round)...)
		}
		for c := 0; c < p.Clients; c++ {
			var ops []op
			for round := 0; round < p.Rounds; round++ {
				ops = append(ops, path(int64(128+64*c+round), p.ConcRound)...)
			}
			in.conc = append(in.conc, ops)
		}
		return in, nil
	default:
		return in, fmt.Errorf("unknown workload %q", name)
	}
	in.warm = gen(0, p.Warm)
	in.serial = gen(1, serialN)
	in.traced = gen(2, p.Traced)
	for c := 0; c < p.Clients; c++ {
		in.conc = append(in.conc, gen(int64(3+c), concN))
	}
	return in, nil
}

// stratifiedROIs places n square ROIs of the given area uniformly over
// the unit data space, like workload.ROIs, but stratified: the placement
// square is cut into a k x k lattice with k*k >= n (k a multiple of
// align), the cells are visited in a random order drawn from orderSeed,
// and each ROI's corner is drawn uniformly inside its cell from
// jitterSeed. Any one ROI is still uniform; a run's ROIs cover the
// terrain evenly, so counts that depend on where the queries fall (mesh
// size, tiles covered, pages read) vary far less from seed to seed.
func stratifiedROIs(orderSeed, jitterSeed int64, n int, areaFrac float64, align int) []geom.Rect {
	side := math.Min(1, math.Sqrt(areaFrac))
	k := int(math.Ceil(math.Sqrt(float64(max(n, 1)))))
	k = (k + align - 1) / align * align
	cells := rand.New(rand.NewSource(orderSeed)).Perm(k * k)
	jitter := rand.New(rand.NewSource(jitterSeed))
	out := make([]geom.Rect, n)
	for i := range out {
		cx, cy := cells[i]%k, cells[i]/k
		x := (float64(cx) + jitter.Float64()) / float64(k) * (1 - side)
		y := (float64(cy) + jitter.Float64()) / float64(k) * (1 - side)
		out[i] = geom.Rect{MinX: x, MinY: y, MaxX: x + side, MaxY: y + side}
	}
	return out
}

// hash digests the op lists, in order, bit for bit.
func (in inputs) hash() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	list := func(ops []op) {
		put(float64(len(ops)))
		for _, o := range ops {
			for _, v := range []float64{o.ROI.MinX, o.ROI.MinY, o.ROI.MaxX, o.ROI.MaxY, o.Pct, o.Near, o.Far, o.Angle} {
				put(v)
			}
		}
	}
	list(in.warm)
	list(in.serial)
	list(in.traced)
	for _, l := range in.conc {
		list(l)
	}
	return h.Sum64()
}
