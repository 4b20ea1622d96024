package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestRegistryCountersGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("queries_total", "total queries")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if r.Counter("queries_total", "") != c {
		t.Error("re-registration returned a different counter")
	}

	g := r.Gauge("resident_tiles", "tiles resident")
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Errorf("gauge = %d, want 7", g.Value())
	}

	r.GaugeFunc("cache_bytes", "bytes held", func() int64 { return 42 })

	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	r.Gauge("queries_total", "")
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1 << 20, 20}, {1 << 45, histBuckets}}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
		if c.want < histBuckets && c.v > BucketBound(c.want) {
			t.Errorf("value %d above its bucket bound %d", c.v, BucketBound(c.want))
		}
	}

	h := &Histogram{}
	for _, v := range []uint64{0, 1, 2, 100, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 || s.Sum != 1103 {
		t.Errorf("count=%d sum=%d, want 5/1103", s.Count, s.Sum)
	}
}

func TestWritePrometheusParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "second").Add(2)
	r.Counter("a_total", "first").Add(1)
	h := r.Histogram("query_da", "disk accesses per query")
	h.Observe(3)
	h.Observe(300)
	r.GaugeFunc("resident", "resident tiles", func() int64 { return 9 })

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	// Minimal exposition-format validation: every non-comment line is
	// "name{labels} value", HELP/TYPE precede samples, metrics sorted.
	var lastMetric string
	var cum uint64
	sawInf := false
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			parts := strings.Fields(line)
			if len(parts) < 3 || (parts[1] != "HELP" && parts[1] != "TYPE") {
				t.Errorf("malformed comment line %q", line)
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("sample line %q: want 2 fields", line)
		}
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if base < lastMetric {
			t.Errorf("metrics out of order: %q after %q", base, lastMetric)
		}
		lastMetric = base
		var v uint64
		if _, err := fmt.Sscan(fields[1], &v); err != nil {
			t.Errorf("sample %q: non-numeric value: %v", line, err)
		}
		if strings.HasSuffix(name, "_bucket") {
			if v < cum && !sawInf {
				t.Errorf("histogram buckets not cumulative at %q", line)
			}
			cum = v
			if strings.Contains(fields[0], "+Inf") {
				sawInf = true
			}
		}
	}
	if !sawInf {
		t.Error("histogram missing +Inf bucket")
	}
	if !strings.Contains(text, "query_da_sum 303") || !strings.Contains(text, "query_da_count 2") {
		t.Errorf("histogram sum/count missing:\n%s", text)
	}
	if !strings.Contains(text, "resident 9") {
		t.Errorf("gauge func missing:\n%s", text)
	}
}

// TestWritePrometheusDeterministic: the one export encodes a fixed state
// identically every time, name-sorted whatever the registration order.
func TestWritePrometheusDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total", "").Add(3)
	r.Counter("a_total", "").Add(1)
	r.Histogram("lat", "").Observe(5)

	var b1, b2 bytes.Buffer
	if err := r.WritePrometheus(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Errorf("back-to-back encodings differ:\n%s\n%s", b1.String(), b2.String())
	}
	text := b1.String()
	if a, l, z := strings.Index(text, "a_total 1"), strings.Index(text, "lat_count 1"), strings.Index(text, "z_total 3"); a < 0 || a > l || l > z {
		t.Errorf("series missing or not name-sorted:\n%s", text)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter("shared_total", "").Inc()
				r.Histogram("shared_hist", "").Observe(uint64(j))
				r.Counter(fmt.Sprintf("own_%d_total", i), "").Inc()
				var buf bytes.Buffer
				_ = r.WritePrometheus(&buf)
			}
		}(i)
	}
	wg.Wait()
	if got := r.Counter("shared_total", "").Value(); got != 1600 {
		t.Errorf("shared counter = %d, want 1600", got)
	}
}
