package obs

import (
	"encoding/base64"
	"sort"
	"sync"
	"time"
)

// SlowEntry is one slow-query record: what ran, what it cost, and the
// full per-phase breakdown of where the cost went.
type SlowEntry struct {
	Seq   uint64        `json:"seq"` // monotone intake order
	Query string        `json:"query"`
	When  time.Time     `json:"when"`
	Dur   time.Duration `json:"nanos"`
	DA    uint64        `json:"disk_accesses"`
	// Size says how big the query was, so that an entry slow because it
	// was large reads differently from one slow for its size.
	Size
	Phases []PhaseStat `json:"phases,omitempty"`

	// TraceWire is the base64 TraceWire encoding of the full span tree,
	// when the observed trace had one — the drill-down a cluster-merged
	// slow log carries across process boundaries (DecodeTraceWire on the
	// decoded bytes recovers every span).
	TraceWire string `json:"trace_wire,omitempty"`
}

// Size is the store work behind one query: the node records it fetched and
// the range queries (the strips of a cube plan, the delta fragments of a
// coherent frame, the tiles materialized) that fetched them. Zero for a
// query answered without touching the store.
type Size struct {
	RecordsFetched int `json:"records_fetched,omitempty"`
	Strips         int `json:"strips,omitempty"`
}

// SlowLog is a fixed-capacity ring buffer of queries slower than a
// threshold. Safe for concurrent use.
type SlowLog struct {
	mu        sync.Mutex
	threshold time.Duration
	ring      []SlowEntry
	next      int // ring insertion point
	n         int // entries held (<= cap)
	seq       uint64
}

// NewSlowLog returns a slow log holding the capacity most recent
// entries with duration >= threshold. Capacity must be positive.
func NewSlowLog(capacity int, threshold time.Duration) *SlowLog {
	if capacity <= 0 {
		capacity = 1
	}
	return &SlowLog{threshold: threshold, ring: make([]SlowEntry, capacity)}
}

// Threshold reports the current admission threshold.
func (l *SlowLog) Threshold() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.threshold
}

// Observe records a finished query if it met the threshold. The phase
// breakdown is copied out of tr (which may be nil or about to be
// reset), so entries stay valid after the trace is reused.
func (l *SlowLog) Observe(query string, dur time.Duration, da uint64, size Size, tr *Trace) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if dur < l.threshold {
		return
	}
	l.seq++
	var wire string
	if len(tr.Spans()) > 0 {
		// Encoding fails only on a trace with open spans — an entry for a
		// query that is somehow still running keeps its breakdown and just
		// drops the span tree.
		if buf, err := tr.EncodeWire(); err == nil {
			wire = base64.StdEncoding.EncodeToString(buf)
		}
	}
	l.ring[l.next] = SlowEntry{
		Seq:       l.seq,
		Query:     query,
		When:      time.Now(),
		Dur:       dur,
		DA:        da,
		Size:      size,
		Phases:    tr.PhaseStats(),
		TraceWire: wire,
	}
	l.next = (l.next + 1) % len(l.ring)
	if l.n < len(l.ring) {
		l.n++
	}
}

// Worst returns up to n retained entries, slowest first; ties break on
// intake order (newer first) so the result is deterministic.
func (l *SlowLog) Worst(n int) []SlowEntry {
	l.mu.Lock()
	out := make([]SlowEntry, 0, l.n)
	for i := 0; i < l.n; i++ {
		out = append(out, l.ring[i])
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dur != out[j].Dur {
			return out[i].Dur > out[j].Dur
		}
		return out[i].Seq > out[j].Seq
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
