package main

import (
	"sort"
	"time"
)

// The host this runs on changes speed under the program: the same ops
// take 10-40% longer in some minutes than in others, whatever the
// program does (README, "Host speed"). So every time the benchmark
// reports end to end is read against a probe of the host's speed taken
// next to it: a fixed, allocation-free kernel (fill 12k ints from a
// generator, sort them; 96 KB, ~0.8 ms), timed before every serial-leg
// op, off the op's clock, and either side of every concurrent round and
// set-up stage. A time is multiplied by probeRefMs / probe: it is stated
// at the speed at which the probe takes probeRefMs, which is this host in
// its quiet minutes, so that on a quiet host the figure is the measured
// one.
const (
	probeRefMs   = 0.80
	probeWindow  = 4  // an op is read against the probes of the 4 ops either side of it too
	aroundProbes = 12 // probes before and after a concurrent round or a set-up stage
)

type prober struct {
	buf [12000]int
}

// probe runs the kernel once and returns its time in ms.
func (p *prober) probe() float64 {
	t0 := time.Now()
	s := uint64(12345)
	for i := range p.buf {
		s = s*6364136223846793005 + 1442695040888963407
		p.buf[i] = int(s >> 33)
	}
	sort.Ints(p.buf[:])
	return msOf(time.Since(t0))
}

// speeds turns a round's probes, one per op, into the host speed each op
// is read against: probeRefMs over the median of the probes within
// probeWindow ops of it. A lone probe can be hit by an interrupt or a GC
// phase; the median of nine is the speed of that quarter second.
func speeds(probes []float64) []float64 {
	out := make([]float64, len(probes))
	for i := range probes {
		out[i] = ratio(probeRefMs, median(probes[max(0, i-probeWindow):min(len(probes), i+probeWindow+1)]))
	}
	return out
}

// around runs fn with a batch of probes either side of it, and returns
// fn's wall time in seconds and the host speed to read it against.
func (p *prober) around(fn func()) (wall, speed float64) {
	probes := make([]float64, 0, 2*aroundProbes)
	batch := func() {
		for i := 0; i < aroundProbes; i++ {
			probes = append(probes, p.probe())
		}
	}
	batch()
	start := time.Now()
	fn()
	wall = time.Since(start).Seconds()
	batch()
	return wall, ratio(probeRefMs, median(probes))
}
