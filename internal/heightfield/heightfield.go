// Package heightfield generates synthetic digital elevation models (DEMs).
//
// The paper evaluates on two real datasets that are not redistributable: a
// 2-million-point terrain from a mining-survey company and the 17-million-
// point USGS "Crater Lake National Park" DEM. This package provides the
// closest synthetic equivalents: a ridged fractal highland terrain and a
// parametric crater overlaid with fractal detail. Both produce regular
// grids of (x, y, z) samples whose (x, y) distribution is uniform — the
// property the paper's indexing experiments depend on — while the z
// statistics drive realistic LOD skew after simplification.
package heightfield

import (
	"fmt"
	"math"
	"math/rand"

	"dmesh/internal/geom"
)

// Grid is a regular heightfield of Size x Size samples over the unit
// square. Heights are in arbitrary vertical units.
type Grid struct {
	Size int       // samples per side; >= 2
	Z    []float64 // row-major, len Size*Size
}

// NewGrid allocates a flat grid of the given side length.
func NewGrid(size int) *Grid {
	if size < 2 {
		panic(fmt.Sprintf("heightfield: grid size %d < 2", size))
	}
	return &Grid{Size: size, Z: make([]float64, size*size)}
}

// At returns the height at integer cell (i, j) with i indexing x and j
// indexing y.
func (g *Grid) At(i, j int) float64 { return g.Z[j*g.Size+i] }

// Set stores the height at cell (i, j).
func (g *Grid) Set(i, j int, z float64) { g.Z[j*g.Size+i] = z }

// XY returns the unit-square coordinates of cell (i, j).
func (g *Grid) XY(i, j int) (x, y float64) {
	d := float64(g.Size - 1)
	return float64(i) / d, float64(j) / d
}

// Points flattens the grid into 3D points over the unit square.
func (g *Grid) Points() []geom.Point3 {
	pts := make([]geom.Point3, 0, g.Size*g.Size)
	for j := 0; j < g.Size; j++ {
		for i := 0; i < g.Size; i++ {
			x, y := g.XY(i, j)
			pts = append(pts, geom.Point3{X: x, Y: y, Z: g.At(i, j)})
		}
	}
	return pts
}

// MinMax returns the lowest and highest sample in the grid.
func (g *Grid) MinMax() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, z := range g.Z {
		if z < lo {
			lo = z
		}
		if z > hi {
			hi = z
		}
	}
	return lo, hi
}

// Normalize rescales heights into [0, scale].
func (g *Grid) Normalize(scale float64) {
	lo, hi := g.MinMax()
	span := hi - lo
	if span == 0 {
		for i := range g.Z {
			g.Z[i] = 0
		}
		return
	}
	for i := range g.Z {
		g.Z[i] = (g.Z[i] - lo) / span * scale
	}
}

// valueNoise is smooth deterministic 2D noise built from a hashed integer
// lattice with bicubic-ish (smoothstep) interpolation. It avoids importing
// anything beyond the stdlib while giving usable fBm octaves.
type valueNoise struct {
	seed uint64
}

func (n valueNoise) lattice(ix, iy int64) float64 {
	h := uint64(ix)*0x9E3779B97F4A7C15 ^ uint64(iy)*0xC2B2AE3D27D4EB4F ^ n.seed
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return float64(h&((1<<53)-1)) / float64(int64(1)<<53) // [0,1)
}

func smooth(t float64) float64 { return t * t * (3 - 2*t) }

// at samples the noise at (x, y); output in [0, 1).
func (n valueNoise) at(x, y float64) float64 {
	ix, iy := math.Floor(x), math.Floor(y)
	fx, fy := x-ix, y-iy
	i, j := int64(ix), int64(iy)
	v00 := n.lattice(i, j)
	v10 := n.lattice(i+1, j)
	v01 := n.lattice(i, j+1)
	v11 := n.lattice(i+1, j+1)
	sx, sy := smooth(fx), smooth(fy)
	top := v00 + (v10-v00)*sx
	bot := v01 + (v11-v01)*sx
	return top + (bot-top)*sy
}

// fbm sums octaves of value noise; returns roughly [0, 1].
func fbm(n valueNoise, x, y float64, octaves int, lacunarity, gain float64) float64 {
	sum, amp, freq, norm := 0.0, 1.0, 1.0, 0.0
	for o := 0; o < octaves; o++ {
		sum += amp * n.at(x*freq, y*freq)
		norm += amp
		amp *= gain
		freq *= lacunarity
	}
	return sum / norm
}

// ridged turns fbm into sharp-ridge terrain: 1 - |2n-1| per octave.
func ridged(n valueNoise, x, y float64, octaves int, lacunarity, gain float64) float64 {
	sum, amp, freq, norm := 0.0, 1.0, 1.0, 0.0
	for o := 0; o < octaves; o++ {
		v := n.at(x*freq, y*freq)
		r := 1 - math.Abs(2*v-1)
		sum += amp * r * r
		norm += amp
		amp *= gain
		freq *= lacunarity
	}
	return sum / norm
}

// Highland synthesizes the stand-in for the paper's 2M-point mining-survey
// terrain: rugged ridged-fractal highland with broad relief. Heights are
// normalized to [0, 1].
func Highland(size int, seed int64) *Grid {
	g := NewGrid(size)
	n := valueNoise{seed: uint64(seed)*2654435761 + 1}
	base := valueNoise{seed: uint64(seed)*0x1000193 + 7}
	for j := 0; j < size; j++ {
		for i := 0; i < size; i++ {
			x, y := g.XY(i, j)
			relief := fbm(base, x*3, y*3, 4, 2.0, 0.5)
			ridge := ridged(n, x*6, y*6, 6, 2.0, 0.5)
			g.Set(i, j, 0.55*relief+0.45*ridge)
		}
	}
	g.Normalize(1)
	return g
}

// Crater synthesizes the stand-in for the USGS Crater Lake DEM: a ring
// ridge around a deep central basin (the caldera lake), with fractal detail
// on the flanks. Heights are normalized to [0, 1].
func Crater(size int, seed int64) *Grid {
	g := NewGrid(size)
	n := valueNoise{seed: uint64(seed)*0x9E3779B9 + 3}
	const (
		cx, cy     = 0.5, 0.5
		rimRadius  = 0.28 // radius of the caldera rim
		rimWidth   = 0.10
		lakeLevel  = 0.15
		rimHeight  = 1.0
		flankSlope = 1.6
	)
	for j := 0; j < size; j++ {
		for i := 0; i < size; i++ {
			x, y := g.XY(i, j)
			d := math.Hypot(x-cx, y-cy)
			var h float64
			switch {
			case d < rimRadius-rimWidth:
				// Inside the caldera: flat lake with slight bowl.
				h = lakeLevel - 0.05*(1-d/rimRadius)
			case d < rimRadius+rimWidth:
				// The rim: a smooth ridge peaking at rimRadius.
				t := (d - rimRadius) / rimWidth // [-1, 1]
				h = rimHeight * (1 - t*t)
			default:
				// Outer flanks falling off toward the edges.
				h = rimHeight * math.Exp(-flankSlope*(d-rimRadius-rimWidth)*3)
			}
			detail := fbm(n, x*8, y*8, 5, 2.0, 0.5)
			h += 0.25 * detail * (0.3 + d) // flanks are rougher than the lake
			g.Set(i, j, h)
		}
	}
	g.Normalize(1)
	return g
}

// Named builds one of the two benchmark datasets by name: "highland" (the
// 2M-point stand-in) or "crater" (the 17M-point stand-in). A side below 2
// is an error.
func Named(name string, size int, seed int64) (*Grid, error) {
	if size < 2 {
		return nil, fmt.Errorf("heightfield: grid size %d < 2", size)
	}
	switch name {
	case "highland":
		return Highland(size, seed), nil
	case "crater":
		return Crater(size, seed), nil
	default:
		return nil, fmt.Errorf("heightfield: unknown dataset %q (want highland or crater)", name)
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// HeightAt bilinearly interpolates the terrain height at unit-square
// coordinates (x, y), clamping outside samples to the border.
func (g *Grid) HeightAt(x, y float64) float64 {
	fx := clamp01(x) * float64(g.Size-1)
	fy := clamp01(y) * float64(g.Size-1)
	i0, j0 := int(fx), int(fy)
	i1, j1 := i0+1, j0+1
	if i1 >= g.Size {
		i1 = g.Size - 1
	}
	if j1 >= g.Size {
		j1 = g.Size - 1
	}
	tx, ty := fx-float64(i0), fy-float64(j0)
	top := g.At(i0, j0)*(1-tx) + g.At(i1, j0)*tx
	bot := g.At(i0, j1)*(1-tx) + g.At(i1, j1)*tx
	return top*(1-ty) + bot*ty
}

// SampleIrregular draws n survey-style sample points from the terrain:
// the four corners (so the hull covers the domain) plus uniformly random
// interior locations with bilinearly interpolated heights. This is the
// "irregular mesh" input modality of the paper's Section 1.
func (g *Grid) SampleIrregular(n int, seed int64) []geom.Point3 {
	if n < 4 {
		n = 4
	}
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point3, 0, n)
	for _, c := range [][2]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}} {
		pts = append(pts, geom.Point3{X: c[0], Y: c[1], Z: g.HeightAt(c[0], c[1])})
	}
	seen := make(map[[2]float64]bool, n)
	for len(pts) < n {
		x, y := rng.Float64(), rng.Float64()
		key := [2]float64{x, y}
		if seen[key] {
			continue
		}
		seen[key] = true
		pts = append(pts, geom.Point3{X: x, Y: y, Z: g.HeightAt(x, y)})
	}
	return pts
}
