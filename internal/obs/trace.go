// Package obs is the stdlib-only telemetry layer of the serving stack:
// a metrics registry (atomic counters, gauges, log-bucketed histograms
// with deterministic snapshots and Prometheus-text export),
// a hierarchical query tracer whose spans attribute both wall time and
// exact disk-access deltas to query phases, and a ring-buffered slow-query
// log.
//
// The paper's entire evaluation is one number — disk accesses per query —
// so the tracer is built around an exactness invariant rather than
// sampling: every span records the DA delta of the session counter it is
// bound to while the span is open, a span's self cost is its delta minus
// its children's, and the per-phase self costs of a well-formed trace sum
// exactly to the session's total. CheckTotal verifies the invariant
// against an independently read total; the dabreakdown figure and the
// unit tests hold it on every traced query.
//
// Instrumentation is free when disabled: every Trace method is a nil-
// receiver no-op, so the hot path pays one nil check and zero allocations
// when no collector is installed.
package obs

import (
	"cmp"
	"fmt"
	"slices"
	"time"
)

// Phase names the stage of query processing a span attributes its cost
// to. The taxonomy follows the serving stack: index descent, record
// fetching, overflow-chain walks, ID-index probes, in-memory
// triangulation, multi-base planning, tile materialization, tile
// stitching, seam closure, and cache lookups.
type Phase uint8

const (
	// PhaseQuery is the root span every traced query opens; its self
	// cost is whatever no child phase claimed (zero DA when the
	// instrumentation covers every read).
	PhaseQuery Phase = iota
	// PhaseRTree is the R*-tree range-query descent.
	PhaseRTree
	// PhaseFetch is the heap-file record fetch loop of a range query.
	PhaseFetch
	// PhaseOverflow is the overflow-chain walk of spilled connection
	// lists (a child of PhaseFetch).
	PhaseOverflow
	// PhaseIDIndex is a B+-tree probe (point lookups by node ID).
	PhaseIDIndex
	// PhaseTriangulate is the in-memory mesh assembly (no I/O).
	PhaseTriangulate
	// PhasePlan is cost-model planning: strip plans and the coherent
	// engine's delta-vs-full decision (no I/O).
	PhasePlan
	// PhaseMaterialize is a tile-cache materialization (one uniform
	// query building a resident patch).
	PhaseMaterialize
	// PhaseStitch is the tile-cache patch stitch (bulk merge and
	// boundary clip; no I/O).
	PhaseStitch
	// PhaseSeam is the cross-tile seam resolution and corner sweep
	// inside a stitch (no I/O).
	PhaseSeam
	// PhaseCache is one tile-cache lookup (hit, miss, or deduped wait).
	PhaseCache
	// PhaseShardHop is one cross-process hop: a router-side span whose
	// children are the spans a shard reported over the trace wire. Its
	// inclusive DA is the shard's X-DM-DA; its self DA is zero whenever
	// the shard's trace fully accounts for that header.
	PhaseShardHop
	// PhaseStreamEncode is one progressive-stream delta-batch encoding
	// (pure CPU; no I/O).
	PhaseStreamEncode
	// PhaseStreamReplay wraps the rung queries a resumed stream re-runs
	// only to rebuild delta state — work a resume pays for but never
	// transmits.
	PhaseStreamReplay

	// NumPhases bounds the phase enum; breakdown arrays index by Phase.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"query", "rtree_descent", "dm_fetch", "overflow_walk", "id_index",
	"triangulate", "plan", "tile_materialize", "stitch", "seam_closure",
	"cache_lookup", "shard_hop", "stream_encode", "stream_replay",
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// Span is one recorded trace span. DA is inclusive of children (like the
// wall-time Dur); SelfDA subtracts the children's DA and SelfDur the time
// they cover — the union of their intervals, since spliced shard hops run
// concurrently.
type Span struct {
	Phase  Phase
	Parent int32 // index into Trace.Spans(); -1 for a root span
	Start  time.Duration
	Dur    time.Duration

	// DA is the disk-access delta observed while the span was open: the
	// bound sampler's end-start difference plus anything charged with
	// AddDA (the tile cache charges materialization costs it accounts
	// itself). Valid after End.
	DA uint64

	startDA  uint64
	charged  uint64
	childDA  uint64
	childDur time.Duration // the union of the children's intervals
	open     bool
	// spliced marks a span with SpliceRemote hops among its children.
	// Those may overlap each other, so End covers the children's
	// intervals exactly (cover) instead of adding up their durations.
	spliced bool
}

// SelfDA is the span's exclusive disk-access cost: DA minus the children's.
func (s *Span) SelfDA() uint64 { return s.DA - s.childDA }

// SelfDur is the span's exclusive wall time.
func (s *Span) SelfDur() time.Duration { return s.Dur - s.childDur }

// Trace records the hierarchical spans of one query against a
// preallocated arena. A Trace is bound at creation to a DA sampler —
// typically a session's DiskAccesses method — and samples it at span
// boundaries, so phase attribution is exact, not statistical.
//
// A Trace is not safe for concurrent use: it rides a single query (or a
// single coherent session), the same discipline the pager.Session it is
// bound to already requires. All methods are no-ops on a nil *Trace, so
// instrumented code paths need no collector-installed checks beyond
// holding a possibly-nil pointer.
type Trace struct {
	da    func() uint64
	epoch time.Time
	spans []Span
	stack []int32
	ivals [][2]time.Duration // cover's scratch, kept across Reset
}

// arenaSpans is the span capacity preallocated per trace; a query deeper
// than that grows the arena (retained across Reset).
const arenaSpans = 64

// NewTrace returns an empty trace bound to the DA sampler. The sampler
// must be monotone while any span is open (a session's DiskAccesses is;
// do not ResetStats mid-span). A nil sampler records zero sampled DA —
// the tile cache uses that mode and charges DA explicitly with AddDA.
func NewTrace(da func() uint64) *Trace {
	return &Trace{
		da:    da,
		epoch: time.Now(),
		spans: make([]Span, 0, arenaSpans),
		stack: make([]int32, 0, 8),
	}
}

// Reset discards all recorded spans, keeping the arena. Call it between
// the queries of a reused trace (after ResetStats, never mid-span).
func (t *Trace) Reset() {
	if t == nil {
		return
	}
	t.spans = t.spans[:0]
	t.stack = t.stack[:0]
	t.epoch = time.Now()
}

// sample reads the bound DA counter (zero with a nil sampler).
func (t *Trace) sample() uint64 {
	if t.da == nil {
		return 0
	}
	return t.da()
}

// Now returns the current offset from the trace's epoch — the Start a
// span opened at this instant would record. Unlike every other method it
// is safe to call from another goroutine (it only reads the epoch, which
// changes only on Reset), so concurrent fan-out work can timestamp the
// hops it will SpliceRemote after it rejoins the trace's goroutine. Zero
// on a nil trace.
func (t *Trace) Now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch)
}

// Begin opens a span of the given phase as a child of the innermost open
// span. Every Begin must be matched by End before the trace is read.
func (t *Trace) Begin(p Phase) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, Span{
		Phase:   p,
		Parent:  parent,
		Start:   time.Since(t.epoch),
		startDA: t.sample(),
		open:    true,
	})
	t.stack = append(t.stack, int32(len(t.spans)-1))
}

// AddDA charges n disk accesses to the innermost open span, for costs the
// caller counted through a channel the bound sampler cannot see (the tile
// cache's per-flight sessions). Charged DA propagates to ancestors like
// sampled DA does.
func (t *Trace) AddDA(n uint64) {
	if t == nil || n == 0 || len(t.stack) == 0 {
		return
	}
	t.spans[t.stack[len(t.stack)-1]].charged += n
}

// End closes the innermost open span, fixing its duration and DA delta
// and rolling both into its parent.
func (t *Trace) End() {
	if t == nil || len(t.stack) == 0 {
		return
	}
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	sp := &t.spans[i]
	sp.Dur = time.Since(t.epoch) - sp.Start
	sp.DA = (t.sample() - sp.startDA) + sp.charged
	sp.open = false
	if sp.spliced {
		sp.childDur = t.cover(i)
	}
	if sp.Parent >= 0 {
		// Begin/End children are sequential, so their durations add up.
		par := &t.spans[sp.Parent]
		par.childDA += sp.DA
		par.childDur += sp.Dur
		// Charged DA is invisible to the parent's sampler; roll it up so
		// the parent's inclusive DA still covers the children (spans end
		// child-before-parent, so this propagates transitively).
		par.charged += sp.charged
	}
}

// cover returns the length of the union of span i's children's
// [Start, Start+Dur) intervals, clipped to span i's own. Every span after
// i in the arena was recorded while i was open, so its children are
// found there.
func (t *Trace) cover(i int32) time.Duration {
	lo, hi := t.spans[i].Start, t.spans[i].Start+t.spans[i].Dur
	iv := t.ivals[:0]
	for j := int(i) + 1; j < len(t.spans); j++ {
		if c := &t.spans[j]; c.Parent == i {
			iv = append(iv, [2]time.Duration{max(c.Start, lo), min(c.Start+c.Dur, hi)})
		}
	}
	t.ivals = iv
	slices.SortFunc(iv, func(a, b [2]time.Duration) int { return cmp.Compare(a[0], b[0]) })
	var total time.Duration
	end := lo
	for _, v := range iv {
		if from := max(v[0], end); v[1] > from {
			total += v[1] - from
			end = v[1]
		}
	}
	return total
}

// Spans returns the recorded spans in Begin order. The slice aliases the
// arena; it is valid until the next Reset.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// TotalDA sums the root spans' (inclusive) disk accesses — the trace's
// view of what the traced query cost.
func (t *Trace) TotalDA() uint64 {
	if t == nil {
		return 0
	}
	var total uint64
	for i := range t.spans {
		if t.spans[i].Parent < 0 {
			total += t.spans[i].DA
		}
	}
	return total
}

// Breakdown aggregates the spans' exclusive costs by phase. The
// invariant of a well-formed trace: the breakdown entries sum exactly to
// TotalDA.
func (t *Trace) Breakdown() [NumPhases]uint64 {
	var out [NumPhases]uint64
	if t == nil {
		return out
	}
	for i := range t.spans {
		out[t.spans[i].Phase] += t.spans[i].SelfDA()
	}
	return out
}

// PhaseStat is one phase's aggregated exclusive cost within a trace.
type PhaseStat struct {
	Phase Phase         `json:"phase_id"`
	Name  string        `json:"phase"`
	DA    uint64        `json:"disk_accesses"`
	Dur   time.Duration `json:"nanos"`
	Spans int           `json:"spans"`
}

// PhaseStats returns the per-phase aggregation of the trace in phase
// order (deterministic), skipping phases with no spans.
func (t *Trace) PhaseStats() []PhaseStat {
	if t == nil {
		return nil
	}
	var agg [NumPhases]PhaseStat
	for i := range t.spans {
		sp := &t.spans[i]
		agg[sp.Phase].DA += sp.SelfDA()
		agg[sp.Phase].Dur += sp.SelfDur()
		agg[sp.Phase].Spans++
	}
	out := make([]PhaseStat, 0, NumPhases)
	for p := Phase(0); p < NumPhases; p++ {
		if agg[p].Spans == 0 {
			continue
		}
		agg[p].Phase = p
		agg[p].Name = p.String()
		out = append(out, agg[p])
	}
	return out
}

// CheckTotal verifies the DA-attribution invariant against an
// independently read total (the session's DiskAccesses): all spans
// closed, every span's children within its own delta, and the per-phase
// breakdown summing exactly to total. A nil trace trivially passes only
// a zero total.
func (t *Trace) CheckTotal(total uint64) error {
	if t == nil {
		if total != 0 {
			return fmt.Errorf("obs: nil trace cannot account for %d disk accesses", total)
		}
		return nil
	}
	if len(t.stack) != 0 {
		return fmt.Errorf("obs: %d spans still open", len(t.stack))
	}
	var sum uint64
	for i := range t.spans {
		sp := &t.spans[i]
		if sp.open {
			return fmt.Errorf("obs: span %d (%s) never ended", i, sp.Phase)
		}
		if sp.childDA > sp.DA {
			return fmt.Errorf("obs: span %d (%s): children claim %d DA, span observed only %d",
				i, sp.Phase, sp.childDA, sp.DA)
		}
		sum += sp.SelfDA()
	}
	if sum != total {
		return fmt.Errorf("obs: phase DA sums to %d, session total is %d", sum, total)
	}
	if rt := t.TotalDA(); rt != total {
		return fmt.Errorf("obs: root spans observed %d DA, session total is %d", rt, total)
	}
	return nil
}
