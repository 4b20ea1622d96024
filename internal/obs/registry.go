package obs

import (
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotone atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the counter.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of finite histogram buckets: bucket i counts
// observations with value <= 2^i, covering [0, 2^39] before the overflow
// bucket — plenty for both DA counts and nanosecond latencies up to ~9m.
const histBuckets = 40

// Histogram is a log2-bucketed histogram of uint64 observations (DA
// counts, nanosecond latencies). Observation and snapshot are lock-free;
// a snapshot taken under concurrent observation is internally consistent
// per bucket but not across buckets, which is fine for monitoring.
type Histogram struct {
	buckets [histBuckets + 1]atomic.Uint64 // last bucket is +Inf
	sum     atomic.Uint64
	count   atomic.Uint64
}

// bucketIndex places v in its log2 bucket: 0 holds v<=1, i holds
// 2^(i-1) < v <= 2^i, and histBuckets holds the overflow.
func bucketIndex(v uint64) int {
	if v <= 1 {
		return 0
	}
	idx := bits.Len64(v - 1)
	if idx > histBuckets {
		return histBuckets
	}
	return idx
}

// BucketBound returns the inclusive upper bound of finite bucket i.
func BucketBound(i int) uint64 { return uint64(1) << uint(i) }

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bucketIndex(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Buckets [histBuckets + 1]uint64 // per-bucket counts (not cumulative)
	Sum     uint64
	Count   uint64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Sum = h.sum.Load()
	s.Count = h.count.Load()
	return s
}

// metricKind discriminates registry entries.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

type metric struct {
	name string
	help string
	kind metricKind

	counter *Counter
	gauge   *Gauge
	fn      func() int64
	hist    *Histogram
}

// Registry is a named collection of metrics. Get-or-create registration
// is idempotent by name; registering the same name as a different kind
// panics (a wiring bug, not a runtime condition). Export order is sorted
// by name, so two exports of the same state encode identically.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

func (r *Registry) getOrCreate(name, help string, kind metricKind) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as a different kind", name))
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind}
	switch kind {
	case kindCounter:
		m.counter = &Counter{}
	case kindGauge:
		m.gauge = &Gauge{}
	case kindHistogram:
		m.hist = &Histogram{}
	}
	r.metrics[name] = m
	return m
}

// Counter returns the counter registered under name, creating it if
// needed. Names should follow Prometheus conventions (snake_case,
// _total suffix for counters).
func (r *Registry) Counter(name, help string) *Counter {
	return r.getOrCreate(name, help, kindCounter).counter
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.getOrCreate(name, help, kindGauge).gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at export
// time (for values another subsystem already maintains, like cache
// residency). Re-registering the same name replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	m := r.getOrCreate(name, help, kindGaugeFunc)
	r.mu.Lock()
	m.fn = fn
	r.mu.Unlock()
}

// fnValue evaluates a GaugeFunc metric, reading the function pointer
// under the registry lock (it may be replaced concurrently) but calling
// it outside, since it may take other locks.
func (r *Registry) fnValue(m *metric) int64 {
	r.mu.Lock()
	fn := m.fn
	r.mu.Unlock()
	if fn == nil {
		return 0
	}
	return fn()
}

// Histogram returns the histogram registered under name, creating it if
// needed.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.getOrCreate(name, help, kindHistogram).hist
}

// Snapshot copies the registry's current state into the form the
// Prometheus text writer, parser and merger share (PromSnapshot), so
// there is one text encoding of a metrics page and an in-process reader
// needs no render-and-parse round trip. Histogram buckets are cumulative
// with le labels.
func (r *Registry) Snapshot() *PromSnapshot {
	r.mu.Lock()
	metrics := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		metrics = append(metrics, m)
	}
	r.mu.Unlock()
	snap := &PromSnapshot{Metrics: make(map[string]*PromMetric, len(metrics))}
	for _, m := range metrics {
		pm := &PromMetric{Name: m.name, Help: m.help, Kind: "gauge"}
		switch m.kind {
		case kindCounter:
			pm.Kind, pm.Value = "counter", int64(m.counter.Value())
		case kindGauge:
			pm.Value = m.gauge.Value()
		case kindGaugeFunc:
			pm.Value = r.fnValue(m)
		case kindHistogram:
			s := m.hist.Snapshot()
			pm.Kind, pm.Sum, pm.Count = "histogram", s.Sum, s.Count
			var cum uint64
			for i, n := range s.Buckets {
				cum += n
				le := "+Inf"
				if i < histBuckets {
					le = strconv.FormatUint(BucketBound(i), 10)
				}
				pm.Buckets = append(pm.Buckets, PromBucket{LE: le, Cum: cum})
			}
		}
		snap.Metrics[m.name] = pm
	}
	return snap
}

// WritePrometheus writes the registry in Prometheus text exposition
// format (version 0.0.4), metrics sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.Snapshot().WriteText(w)
}
