package obs

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"dmesh/internal/wire"
)

// sampleTrace builds a closed charge-based trace shaped like a real
// shard-side /patch: a root query span over a cache lookup and a
// materialization that charges DA.
func sampleTrace() *Trace {
	tr := NewTrace(nil)
	tr.Begin(PhaseQuery)
	tr.Begin(PhaseCache)
	tr.End()
	tr.Begin(PhaseMaterialize)
	tr.AddDA(7)
	tr.Begin(PhaseFetch)
	tr.AddDA(3)
	tr.End()
	tr.End()
	tr.End()
	return tr
}

// TestTraceWireRoundTrip pins the codec contract: encode → decode
// reproduces every span field, re-encoding a decoded trace is
// byte-identical (unique encoding), and the decoded trace's TotalDA
// matches the source trace's.
func TestTraceWireRoundTrip(t *testing.T) {
	tr := sampleTrace()
	wire, err := tr.EncodeWire()
	if err != nil {
		t.Fatal(err)
	}
	wt, err := DecodeTraceWire(wire)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Spans()
	if len(wt.Spans) != len(want) {
		t.Fatalf("decoded %d spans, want %d", len(wt.Spans), len(want))
	}
	for i := range want {
		g, w := wt.Spans[i], want[i]
		if g.Phase != w.Phase || g.Parent != w.Parent || g.Start != w.Start ||
			g.Dur != w.Dur || g.DA != w.DA || g.childDA != w.childDA || g.childDur != w.childDur {
			t.Errorf("span %d: decoded %+v, want %+v", i, g, w)
		}
	}
	if wt.TotalDA() != tr.TotalDA() {
		t.Errorf("wire TotalDA %d, want %d", wt.TotalDA(), tr.TotalDA())
	}
	// Unique encoding: the decoded spans re-encode to the same bytes.
	rt := &Trace{spans: wt.Spans}
	wire2, err := rt.EncodeWire()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire, wire2) {
		t.Error("re-encoding a decoded trace changed the bytes")
	}
}

// TestTraceWireEmptyAndNil: a nil or empty trace must encode to a valid
// zero-span wire that decodes back.
func TestTraceWireEmptyAndNil(t *testing.T) {
	for _, tr := range []*Trace{nil, NewTrace(nil)} {
		wire, err := tr.EncodeWire()
		if err != nil {
			t.Fatal(err)
		}
		wt, err := DecodeTraceWire(wire)
		if err != nil {
			t.Fatal(err)
		}
		if len(wt.Spans) != 0 || wt.TotalDA() != 0 {
			t.Errorf("zero-span wire decoded to %d spans, %d DA", len(wt.Spans), wt.TotalDA())
		}
	}
}

// TestTraceWireRejectsOpenSpans: encoding with a span still open must
// fail — the wire carries final figures, not running ones.
func TestTraceWireRejectsOpenSpans(t *testing.T) {
	tr := NewTrace(nil)
	tr.Begin(PhaseQuery)
	if _, err := tr.EncodeWire(); err == nil {
		t.Fatal("encoding an open trace succeeded")
	}
	tr.End()
	if _, err := tr.EncodeWire(); err != nil {
		t.Fatalf("encoding after closing: %v", err)
	}
}

// TestTraceWireDecodeCorrupt enumerates the DMTW-specific violations the
// decoder must reject with wire.ErrCorrupt: bad magic, bad version and
// field range violations. (Truncation, trailing bytes and non-minimal
// varints are the shared harness's, internal/wire TestDecoders.)
func TestTraceWireDecodeCorrupt(t *testing.T) {
	check := func(name string, buf []byte) {
		t.Helper()
		wt, err := DecodeTraceWire(buf)
		if err == nil {
			t.Errorf("%s: decoded successfully (%d spans)", name, len(wt.Spans))
			return
		}
		if !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%s: error does not wrap wire.ErrCorrupt: %v", name, err)
		}
	}
	check("bad magic", []byte("XMTW\x01\x00"))
	check("bad version", []byte("DMTW\x02\x00"))

	// Field violations, hand-built on a one-span wire:
	// phase out of range.
	check("phase range", []byte{'D', 'M', 'T', 'W', 1, 1, byte(NumPhases), 0, 0, 0, 0, 0, 0})
	// self parent (parent index == own index).
	check("self parent", []byte{'D', 'M', 'T', 'W', 1, 1, 0, 1, 0, 0, 0, 0, 0})
	// childDur > dur.
	check("child dur", []byte{'D', 'M', 'T', 'W', 1, 1, 0, 0, 0, 1, 2, 0, 0})
	// childDA > da.
	check("child da", []byte{'D', 'M', 'T', 'W', 1, 1, 0, 0, 0, 0, 0, 1, 2})
	// span count far beyond the buffer.
	check("count overflow", []byte{'D', 'M', 'T', 'W', 1, 0xff, 0xff, 0x3f})
}

// TestSpliceRemoteInvariant is the cross-hop accounting property at the
// unit level: a charge-based router trace that splices shard hops
// carrying wire traces must pass CheckTotal against the sum of the
// out-of-band header DAs, the hop spans' self DA must be zero exactly
// when each shard's trace accounts for its whole header, and the
// spliced spans must keep the remote phase attribution.
func TestSpliceRemoteInvariant(t *testing.T) {
	shard, err := sampleTrace().EncodeWire()
	if err != nil {
		t.Fatal(err)
	}
	wt1, err := DecodeTraceWire(shard)
	if err != nil {
		t.Fatal(err)
	}
	wt2, err := DecodeTraceWire(shard)
	if err != nil {
		t.Fatal(err)
	}
	headerDA := wt1.TotalDA() // the shard fully accounts for its header

	tr := NewTrace(nil)
	tr.Begin(PhaseQuery)
	tr.SpliceRemote(PhaseShardHop, 10*time.Microsecond, 5*time.Microsecond, headerDA, wt1)
	tr.SpliceRemote(PhaseShardHop, 20*time.Microsecond, 5*time.Microsecond, headerDA, wt2)
	tr.Begin(PhaseStitch)
	tr.End()
	tr.End()

	if err := tr.CheckTotal(2 * headerDA); err != nil {
		t.Fatalf("CheckTotal after splicing: %v", err)
	}
	// The hop spans carry the header DA inclusively but claim none of it
	// themselves: the remote spans hold it all.
	var hops, remoteQuery int
	for _, sp := range tr.Spans() {
		if sp.Phase == PhaseShardHop {
			hops++
			if self := sp.DA - sp.childDA; self != 0 {
				t.Errorf("hop span self DA %d, want 0 (shard accounted for its header)", self)
			}
			if sp.DA != headerDA {
				t.Errorf("hop span inclusive DA %d, want %d", sp.DA, headerDA)
			}
		}
		if sp.Phase == PhaseQuery && sp.Parent >= 0 {
			remoteQuery++
		}
	}
	if hops != 2 {
		t.Fatalf("%d hop spans, want 2", hops)
	}
	if remoteQuery != 2 {
		t.Errorf("%d spliced remote root spans, want 2", remoteQuery)
	}

	// An under-claiming shard (header larger than its trace explains)
	// leaves the gap on the hop span — visible, not lost: CheckTotal
	// still balances against the header sum.
	tr2 := NewTrace(nil)
	tr2.Begin(PhaseQuery)
	wt3, _ := DecodeTraceWire(shard)
	tr2.SpliceRemote(PhaseShardHop, 0, time.Microsecond, headerDA+5, wt3)
	tr2.End()
	if err := tr2.CheckTotal(headerDA + 5); err != nil {
		t.Fatalf("CheckTotal with an under-claiming shard: %v", err)
	}
	for _, sp := range tr2.Spans() {
		if sp.Phase == PhaseShardHop {
			if self := sp.DA - sp.childDA; self != 5 {
				t.Errorf("under-claimed hop self DA %d, want the 5-access gap", self)
			}
		}
	}

	// An over-claiming shard (trace total exceeding its header) must be
	// caught by CheckTotal: the hop span's children claim more than the
	// span's own inclusive cost.
	tr3 := NewTrace(nil)
	tr3.Begin(PhaseQuery)
	wt4, _ := DecodeTraceWire(shard)
	tr3.SpliceRemote(PhaseShardHop, 0, time.Microsecond, headerDA-1, wt4)
	tr3.End()
	if err := tr3.CheckTotal(headerDA - 1); err == nil {
		t.Error("CheckTotal accepted a shard trace claiming more DA than its header")
	}
}

// TestSpliceRemoteOverlappingHops: a router's shard hops run concurrently
// and are spliced in cover-key order, so their intervals overlap and do
// not arrive in start order. A span's self time is its duration minus the
// time its children cover, never negative — a remote trace that outlasts
// the hop as the router timed it is clipped to the hop — and the trace
// still encodes to a wire its own decoder accepts. DA is untouched.
func TestSpliceRemoteOverlappingHops(t *testing.T) {
	tr := NewTrace(nil)
	tr.Begin(PhaseQuery)
	a := tr.Now()
	time.Sleep(time.Millisecond)
	b := tr.Now()
	time.Sleep(time.Millisecond)
	c := tr.Now()
	long := &WireTrace{Spans: []Span{{Phase: PhaseQuery, Parent: -1, Dur: time.Hour, DA: 3}}}
	tr.SpliceRemote(PhaseShardHop, b, c-b, 1, nil)
	tr.SpliceRemote(PhaseShardHop, a, b-a, 2, nil)
	tr.SpliceRemote(PhaseShardHop, a, c-a, 3, long)
	tr.End()

	if err := tr.CheckTotal(6); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	if got, want := spans[0].SelfDur(), spans[0].Dur-(c-a); got != want {
		t.Errorf("query self time %v, want %v: its %v minus the %v its hops cover", got, want, spans[0].Dur, c-a)
	}
	if hop := spans[3]; hop.Phase != PhaseShardHop || hop.SelfDur() != 0 {
		t.Errorf("hop under an hour-long shard trace: %v self time, want 0", hop.SelfDur())
	}
	for _, ps := range tr.PhaseStats() {
		if ps.Dur < 0 {
			t.Errorf("phase %s: self time %v", ps.Name, ps.Dur)
		}
	}
	enc, err := tr.EncodeWire()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTraceWire(enc); err != nil {
		t.Errorf("the trace's own wire is refused: %v", err)
	}
}

// TestSpliceRemoteNoOpPaths: splicing into a nil trace or outside any
// open span must be a silent no-op, like every other nil-receiver path.
func TestSpliceRemoteNoOpPaths(t *testing.T) {
	var nilTr *Trace
	nilTr.SpliceRemote(PhaseShardHop, 0, 0, 9, nil) // must not panic

	tr := NewTrace(nil)
	tr.SpliceRemote(PhaseShardHop, 0, 0, 9, nil) // no open span
	if n := len(tr.Spans()); n != 0 {
		t.Errorf("splice outside any open span recorded %d spans", n)
	}
}

// FuzzTraceWireDecode throws arbitrary bytes at the decoder: it must
// never panic, any error must wrap wire.ErrCorrupt, and an accepted input
// must re-encode to exactly the bytes that were decoded (unique
// encoding — the decoder accepts nothing the encoder would not emit).
func FuzzTraceWireDecode(f *testing.F) {
	enc, err := sampleTrace().EncodeWire()
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i <= len(enc); i++ {
		f.Add(enc[:i])
	}
	f.Add([]byte("DMTW"))
	f.Add([]byte{'D', 'M', 'T', 'W', 1, 0xff, 0xff, 0xff, 0xff, 0x0f})
	// The sample's varint durations are wall-clock, so len(enc) — and with
	// it the number of seeds above — moves by a byte or two from run to
	// run; these keep the seed count from ever falling below its usual 46
	// (41 prefixes on the shortest encoding seen), so that no seed#N a test
	// listing has recorded goes missing on a fast run.
	f.Add([]byte{'D', 'M', 'T', 'W', 1})
	f.Add([]byte{'D', 'M', 'T', 'W', 0xff, 0})
	f.Add([]byte{'D', 'M', 'T', 'W', 1, 0})
	f.Add([]byte{'D', 'M', 'T', 'W', 1, 1})
	f.Add([]byte{'D', 'M', 'T', 'W', 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		wt, err := DecodeTraceWire(data)
		if err != nil {
			if !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("decode error does not wrap wire.ErrCorrupt: %v", err)
			}
			return
		}
		if out := wt.Encode(); !bytes.Equal(out, data) {
			t.Fatalf("decode/encode not the identity:\n in: %x\nout: %x", data, out)
		}
	})
}
