package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one harness-side span: a call into one layer's public
// function, timed from outside. Spans of one op share Op; Parent is the
// span that caused this one (-1 for a root).
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Op     int                `json:"op"`
	Layer  string             `json:"layer"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps the spans in memory; they are written when the run ends.
// begin and end are safe from the fan-out goroutines.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(parent, op int, layer, name string) int {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name, Start: now, End: now})
	return id
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// count attaches a count to a span: work done at the boundary the span
// marks, so ratios are measured where the work happens.
func (t *tracer) count(id int, key string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spans[id].Counts == nil {
		t.spans[id].Counts = make(map[string]float64)
	}
	t.spans[id].Counts[key] += v
}

// timed runs fn inside a span and returns the span's id.
func (t *tracer) timed(parent, op int, layer, name string, fn func()) int {
	id := t.begin(parent, op, layer, name)
	fn()
	t.end(id)
	return id
}

func (t *tracer) durMs(id int) float64 { return float64(t.spans[id].dur()) / 1e6 }

// durations returns, in ms, the duration of every span with this name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, float64(t.spans[i].dur())/1e6)
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes attributes every instant of every root span's interval to
// exactly one place: at time t it belongs to the deepest spans active at
// t, split equally when several are (parallel children). A parent's self
// time is therefore its duration minus the union of its children's
// coverage, and the self times of a tree sum to its root's wall time.
// Children are clipped to their parent's interval. The result is in ns,
// indexed like spans.
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	kids := make([][]int, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			kids[p] = append(kids[p], i)
		}
	}
	// attribute hands the interval [lo, hi) of span i, weighted by share,
	// to i's children where they cover it and to i itself where not.
	var attribute func(i int, lo, hi int64, share float64)
	attribute = func(i int, lo, hi int64, share float64) {
		type edge struct {
			at    int64
			child int
			open  bool
		}
		var edges []edge
		for _, c := range kids[i] {
			cl, ch := max(spans[c].Start, lo), min(spans[c].End, hi)
			if ch > cl {
				edges = append(edges, edge{cl, c, true}, edge{ch, c, false})
			}
		}
		sort.Slice(edges, func(a, b int) bool {
			if edges[a].at != edges[b].at {
				return edges[a].at < edges[b].at
			}
			return !edges[a].open && edges[b].open // close before open at a tie
		})
		active := make(map[int]bool)
		at := lo
		flush := func(to int64) {
			if to <= at {
				return
			}
			if len(active) == 0 {
				self[i] += share * float64(to-at)
			} else {
				for c := range active {
					attribute(c, at, to, share/float64(len(active)))
				}
			}
			at = to
		}
		for _, e := range edges {
			flush(e.at)
			if e.open {
				active[e.child] = true
			} else {
				delete(active, e.child)
			}
		}
		flush(hi)
	}
	for i := range spans {
		if spans[i].Parent < 0 {
			attribute(i, spans[i].Start, spans[i].End, 1)
		}
	}
	return self
}
