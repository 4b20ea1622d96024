package obs

import (
	"bytes"
	"testing"
)

// promRegistry builds a registry with one of each metric kind and some
// recorded values — the shape every shard exposes.
func promRegistry(scale uint64) *Registry {
	reg := NewRegistry()
	c := reg.Counter("test_requests_total", "requests served")
	c.Add(3 * scale)
	reg.GaugeFunc("test_entries", "entries resident", func() int64 { return int64(7 * scale) })
	h := reg.Histogram("test_latency_nanos", "request latency")
	h.Observe(100 * scale)
	h.Observe(2000 * scale)
	return reg
}

// TestParsePrometheusRoundTrip: the registry's own exposition page must
// parse back into the values the registry holds, and WriteText must be
// a fixed point of the parse (parse → write → parse is the identity).
func TestParsePrometheusRoundTrip(t *testing.T) {
	var page bytes.Buffer
	if err := promRegistry(1).WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	snap, err := ParsePrometheus(bytes.NewReader(page.Bytes()))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, page.Bytes())
	}
	if m := snap.Metrics["test_requests_total"]; m == nil || m.Kind != "counter" || m.Value != 3 {
		t.Errorf("counter parsed as %+v", m)
	}
	if m := snap.Metrics["test_entries"]; m == nil || m.Kind != "gauge" || m.Value != 7 {
		t.Errorf("gauge parsed as %+v", m)
	}
	h := snap.Metrics["test_latency_nanos"]
	if h == nil || h.Kind != "histogram" {
		t.Fatalf("histogram parsed as %+v", h)
	}
	if h.Count != 2 || h.Sum != 2100 {
		t.Errorf("histogram count/sum = %d/%d, want 2/2100", h.Count, h.Sum)
	}
	if len(h.Buckets) == 0 || h.Buckets[len(h.Buckets)-1].LE != "+Inf" {
		t.Errorf("histogram buckets %v: want a trailing +Inf bound", h.Buckets)
	}
	for i := 1; i < len(h.Buckets); i++ {
		if h.Buckets[i].Cum < h.Buckets[i-1].Cum {
			t.Errorf("bucket counts not cumulative: %v", h.Buckets)
		}
	}

	var out bytes.Buffer
	if err := snap.WriteText(&out); err != nil {
		t.Fatal(err)
	}
	snap2, err := ParsePrometheus(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, out.Bytes())
	}
	var out2 bytes.Buffer
	if err := snap2.WriteText(&out2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), out2.Bytes()) {
		t.Errorf("WriteText not a parse fixed point:\n%s\nvs\n%s", out.Bytes(), out2.Bytes())
	}
}

// TestMergePrometheus: merging N shard pages must sum counters, gauges,
// and histograms bucket-wise, deterministically — and the merged
// histogram must still be a well-formed cumulative distribution.
func TestMergePrometheus(t *testing.T) {
	parse := func(scale uint64) *PromSnapshot {
		t.Helper()
		var page bytes.Buffer
		if err := promRegistry(scale).WritePrometheus(&page); err != nil {
			t.Fatal(err)
		}
		snap, err := ParsePrometheus(bytes.NewReader(page.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	merged, err := MergePrometheus(parse(1), nil, parse(2)) // nil = unreachable shard
	if err != nil {
		t.Fatal(err)
	}
	if m := merged.Metrics["test_requests_total"]; m.Value != 9 {
		t.Errorf("merged counter %d, want 3+6=9", m.Value)
	}
	if m := merged.Metrics["test_entries"]; m.Value != 21 {
		t.Errorf("merged gauge %d, want 7+14=21", m.Value)
	}
	h := merged.Metrics["test_latency_nanos"]
	if h.Count != 4 || h.Sum != 6300 {
		t.Errorf("merged histogram count/sum = %d/%d, want 4/6300", h.Count, h.Sum)
	}
	if last := h.Buckets[len(h.Buckets)-1]; last.LE != "+Inf" || last.Cum != h.Count {
		t.Errorf("merged +Inf bucket %+v, want cum == count %d", last, h.Count)
	}
	for i := 1; i < len(h.Buckets); i++ {
		if h.Buckets[i].Cum < h.Buckets[i-1].Cum {
			t.Fatalf("merged buckets not cumulative: %v", h.Buckets)
		}
	}

	// Determinism: merging the same inputs twice emits identical pages.
	var a, b bytes.Buffer
	if err := merged.WriteText(&a); err != nil {
		t.Fatal(err)
	}
	merged2, err := MergePrometheus(parse(1), nil, parse(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := merged2.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("merge not deterministic:\n%s\nvs\n%s", a.Bytes(), b.Bytes())
	}
}

// TestMergePrometheusMismatch: a name changing kind between shards, or
// a histogram changing bucket shape, must refuse to merge — those
// registries are not the same program.
func TestMergePrometheusMismatch(t *testing.T) {
	a := &PromSnapshot{Metrics: map[string]*PromMetric{
		"m": {Name: "m", Kind: "counter", Value: 1},
	}}
	b := &PromSnapshot{Metrics: map[string]*PromMetric{
		"m": {Name: "m", Kind: "gauge", Value: 1},
	}}
	if _, err := MergePrometheus(a, b); err == nil {
		t.Error("kind mismatch merged without error")
	}
	h1 := &PromSnapshot{Metrics: map[string]*PromMetric{
		"h": {Name: "h", Kind: "histogram", Buckets: []PromBucket{{LE: "1", Cum: 1}, {LE: "+Inf", Cum: 1}}},
	}}
	h2 := &PromSnapshot{Metrics: map[string]*PromMetric{
		"h": {Name: "h", Kind: "histogram", Buckets: []PromBucket{{LE: "2", Cum: 1}, {LE: "+Inf", Cum: 1}}},
	}}
	if _, err := MergePrometheus(h1, h2); err == nil {
		t.Error("bucket-bound mismatch merged without error")
	}
	h3 := &PromSnapshot{Metrics: map[string]*PromMetric{
		"h": {Name: "h", Kind: "histogram", Buckets: []PromBucket{{LE: "+Inf", Cum: 1}}},
	}}
	if _, err := MergePrometheus(h1, h3); err == nil {
		t.Error("bucket-count mismatch merged without error")
	}
	// Merging must not mutate its inputs (the first snapshot seeds the
	// accumulator; its buckets must be deep-copied).
	before := h1.Metrics["h"].Buckets[0].Cum
	if _, err := MergePrometheus(h1, h1); err != nil {
		t.Fatal(err)
	}
	if h1.Metrics["h"].Buckets[0].Cum != before {
		t.Error("MergePrometheus mutated an input snapshot")
	}
}
