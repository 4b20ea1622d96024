package obs

import (
	"fmt"
	"time"

	"dmesh/internal/wire"
)

// Trace wire format (TraceWire, version 1) — the compact deterministic
// binary encoding a shard attaches to its responses so a router can
// splice the shard's phase spans into its own trace:
//
//	magic   "DMTW" (4 bytes)
//	version uvarint (currently 1)
//	count   uvarint (number of spans)
//	per span, in Begin order (parents strictly before children):
//	  phase    uvarint  (< NumPhases)
//	  parent   uvarint  (0 = root, else 1 + parent index; parent < own index)
//	  start    uvarint  (nanoseconds from the trace epoch)
//	  dur      uvarint  (nanoseconds)
//	  childDur uvarint  (nanoseconds the children cover, <= dur)
//	  da       uvarint  (inclusive disk accesses)
//	  childDA  uvarint  (<= da)
//
// Every field is a uvarint after the fixed magic, so the encoding of a
// given trace is unique — byte equality is trace equality.
const (
	traceWireMagic   = "DMTW"
	traceWireVersion = 1
)

// maxWireSpans bounds a decoded trace's span count: a defense against a
// corrupt count field committing the decoder to a huge allocation. Far
// above any real query's span count (deep traces run tens of spans).
const maxWireSpans = 1 << 20

// EncodeWire serializes the trace's recorded spans in the TraceWire
// format. All spans must be closed (the encoding carries final DA and
// duration figures); encoding an open trace returns an error instead of
// lying about costs still accruing. A nil or empty trace encodes to a
// valid zero-span wire.
func (t *Trace) EncodeWire() ([]byte, error) {
	var spans []Span
	if t != nil {
		if len(t.stack) != 0 {
			return nil, fmt.Errorf("obs: encoding trace with %d open spans", len(t.stack))
		}
		spans = t.spans
	}
	return encodeWireSpans(spans), nil
}

func encodeWireSpans(spans []Span) []byte {
	buf := make([]byte, 0, len(traceWireMagic)+2+len(spans)*12)
	buf = append(buf, traceWireMagic...)
	buf = wire.AppendUvarint(buf, traceWireVersion)
	buf = wire.AppendUvarint(buf, uint64(len(spans)))
	for i := range spans {
		sp := &spans[i]
		for _, v := range [...]uint64{uint64(sp.Phase), uint64(sp.Parent + 1),
			uint64(sp.Start), uint64(sp.Dur), uint64(sp.childDur), sp.DA, sp.childDA} {
			buf = wire.AppendUvarint(buf, v)
		}
	}
	return buf
}

// WireTrace is a decoded trace wire: the remote spans with their
// hierarchy, costs, and timings, ready to splice into a local trace.
type WireTrace struct {
	Spans []Span
}

// Encode re-serializes the decoded spans; for any wire DecodeTraceWire
// accepts it returns the identical bytes.
func (wt *WireTrace) Encode() []byte { return encodeWireSpans(wt.Spans) }

// TotalDA sums the root spans' inclusive disk accesses — the remote
// trace's view of what the traced request cost. Zero on nil.
func (wt *WireTrace) TotalDA() uint64 {
	if wt == nil {
		return 0
	}
	var total uint64
	for i := range wt.Spans {
		if wt.Spans[i].Parent < 0 {
			total += wt.Spans[i].DA
		}
	}
	return total
}

// DecodeTraceWire parses a TraceWire buffer. It never panics: any
// malformed input — bad magic, unknown version, phase out of range,
// forward or self parent references, child costs exceeding the span's
// own, a non-minimal varint, truncation at any byte, or trailing
// garbage — returns an error wrapping wire.ErrCorrupt.
func DecodeTraceWire(buf []byte) (*WireTrace, error) {
	r := wire.NewReader("obs: trace wire", buf)
	r.Magic(traceWireMagic)
	if v := r.Uvarint(); v != traceWireVersion {
		r.Corruptf("unsupported version %d", v)
	}
	// Allocation bounded by the physical buffer: a span needs >= 7 bytes.
	count := r.Count("spans", 7)
	if count > maxWireSpans {
		r.Corruptf("implausible span count %d", count)
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	spans := make([]Span, count)
	for i := range spans {
		phase, parent := r.Uvarint(), r.Uvarint()
		start, dur, childDur := r.Uvarint(), r.Uvarint(), r.Uvarint()
		da, childDA := r.Uvarint(), r.Uvarint()
		switch {
		case phase >= uint64(NumPhases):
			r.Corruptf("span %d: phase %d out of range", i, phase)
		case parent > uint64(i):
			r.Corruptf("span %d: parent %d not before it", i, int64(parent)-1)
		case childDur > dur:
			r.Corruptf("span %d: children claim %dns of a %dns span", i, childDur, dur)
		case childDA > da:
			r.Corruptf("span %d: children claim %d DA of a %d-DA span", i, childDA, da)
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
		spans[i] = Span{
			Phase:    Phase(phase),
			Parent:   int32(parent) - 1,
			Start:    time.Duration(start),
			Dur:      time.Duration(dur),
			DA:       da,
			childDA:  childDA,
			childDur: time.Duration(childDur),
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return &WireTrace{Spans: spans}, nil
}

// SpliceRemote appends one closed span of phase p — a cross-process hop
// that started at start (trace-epoch offset, see Now) and took dur — as
// a child of the innermost open span, attaching the remote trace's spans
// beneath it. da is the hop's inclusive disk-access cost as the remote
// side reported it out of band (the X-DM-DA header); it is charged up
// the open ancestor chain exactly as AddDA would charge it, so a
// charge-based trace's CheckTotal equals the sum of the hop DAs plus
// whatever the local side sampled.
//
// When wt carries spans, they become the hop's children (parents
// remapped, starts rebased onto the hop's start): the hop's self DA is
// then da minus the remote roots' total — zero exactly when the shard's
// trace fully accounts for its own header, which is the cross-hop
// invariant CheckTotal extends across the wire. A nil or empty wt leaves
// the hop a leaf carrying all of da itself. No-op on a nil trace or when
// no span is open, matching the other nil-receiver paths.
func (t *Trace) SpliceRemote(p Phase, start, dur time.Duration, da uint64, wt *WireTrace) {
	if t == nil || len(t.stack) == 0 {
		return
	}
	parent := t.stack[len(t.stack)-1]
	hop := Span{
		Phase:  p,
		Parent: parent,
		Start:  start,
		Dur:    dur,
		DA:     da,
	}
	if wt != nil {
		hop.childDA = wt.TotalDA()
	}
	t.spans = append(t.spans, hop)
	hopIdx := int32(len(t.spans) - 1)
	if wt != nil {
		base := int32(len(t.spans))
		for i := range wt.Spans {
			sp := wt.Spans[i]
			if sp.Parent < 0 {
				sp.Parent = hopIdx
			} else {
				sp.Parent += base
			}
			sp.Start += start
			t.spans = append(t.spans, sp)
		}
		t.spans[hopIdx].childDur = t.cover(hopIdx)
	}
	// Roll the hop into its parent the way End would: the parent's
	// children now include the hop (inclusive of the remote spans), and
	// the whole hop DA is charged — the local sampler never saw it. Hops
	// ran concurrently, so the parent's End covers their time exactly.
	par := &t.spans[parent]
	par.childDA += da
	par.spliced = true
	par.charged += da
}
