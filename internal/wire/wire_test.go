package wire_test

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"dmesh/internal/wire"
)

func requireCorrupt(t *testing.T, label string, err error) {
	t.Helper()
	if !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("%s: err = %v, want wire.ErrCorrupt", label, err)
	}
}

// TestUvarintEdges pins the varint contract on both cursors: the full
// uint64 range round-trips, and the overlong, overflowing, non-minimal
// and truncated spellings are all rejected.
func TestUvarintEdges(t *testing.T) {
	ff9 := bytes.Repeat([]byte{0xff}, 9)
	bad := map[string][]byte{
		"empty":                nil,
		"truncated":            {0x80},
		"non-minimal zero":     {0x80, 0x00},
		"non-minimal 2":        {0x82, 0x00},
		"non-minimal 3 bytes":  {0x82, 0x80, 0x00},
		"10th byte overflows":  append(append([]byte{}, ff9...), 0x02),
		"11 bytes":             append(append([]byte{}, ff9...), 0x80, 0x01),
		"10th byte is padding": append(append([]byte{}, ff9...), 0x00),
	}
	for name, b := range bad {
		r := wire.NewReader("test", b)
		if v := r.Uvarint(); v != 0 {
			t.Errorf("%s: failed Uvarint returned %d", name, v)
		}
		requireCorrupt(t, name, r.Err())
		_, err := wire.ReadUvarint(bytes.NewReader(b))
		if name == "empty" || name == "truncated" {
			// A stream that ends is the reader's error, not corruption.
			if !errors.Is(err, io.EOF) || errors.Is(err, wire.ErrCorrupt) {
				t.Errorf("%s: ReadUvarint err = %v, want io.EOF", name, err)
			}
		} else {
			requireCorrupt(t, name+" (ReadUvarint)", err)
		}
	}
	for _, v := range []uint64{0, 1, 127, 128, 300, 1 << 32, math.MaxInt64, math.MaxUint64} {
		b := wire.AppendUvarint(nil, v)
		if len(b) != wire.UvarintLen(v) {
			t.Errorf("UvarintLen(%d) = %d, encoding is %d bytes", v, wire.UvarintLen(v), len(b))
		}
		r := wire.NewReader("test", b)
		if got := r.Uvarint(); got != v || r.Done() != nil {
			t.Errorf("Uvarint round trip of %d: got %d, err %v", v, got, r.Err())
		}
		if got, err := wire.ReadUvarint(bytes.NewReader(b)); got != v || err != nil {
			t.Errorf("ReadUvarint round trip of %d: got %d, err %v", v, got, err)
		}
	}
	for _, v := range []int64{0, -1, 1, -64, 64, math.MinInt64, math.MaxInt64} {
		b := wire.AppendVarint(nil, v)
		r := wire.NewReader("test", b)
		if got := r.Varint(); got != v || r.Done() != nil || len(b) != wire.VarintLen(v) {
			t.Errorf("Varint round trip of %d: got %d, %d bytes (VarintLen %d), err %v",
				v, got, len(b), wire.VarintLen(v), r.Err())
		}
	}
}

// TestReaderSticky: after the first failure every read returns zero and
// the cursor stays where the failure happened.
func TestReaderSticky(t *testing.T) {
	r := wire.NewReader("test", []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if r.Byte() != 1 || r.Byte() != 2 {
		t.Fatal("raw reads")
	}
	r.Corruptf("codec says %s", "no")
	first := r.Err()
	requireCorrupt(t, "Corruptf", first)
	rest := r.Len()
	if r.Uvarint() != 0 || r.Varint() != 0 || r.Byte() != 0 || r.U64() != 0 ||
		r.F64() != 0 || r.Count("more", 1) != 0 || r.Step(5, 0) != 5 || r.Float(true) != 0 {
		t.Fatal("a read after the sticky error returned data")
	}
	r.Magic("\x04")
	r.Corruptf("second failure")
	if r.Len() != rest {
		t.Fatalf("cursor advanced after the sticky error: %d unread, was %d", r.Len(), rest)
	}
	if r.Err() != first || r.Done() != first {
		t.Fatalf("first error replaced: %v", r.Err())
	}
}

// TestReaderBounds: short raw fields, Count at exactly the remaining-bytes
// boundary, Step at MaxInt64, trailing bytes.
func TestReaderBounds(t *testing.T) {
	for n, read := range map[int]func(*wire.Reader){
		1: func(r *wire.Reader) { r.Byte() },
		8: func(r *wire.Reader) { r.F64() },
	} {
		r := wire.NewReader("test", make([]byte, n-1))
		read(&r)
		requireCorrupt(t, "short raw field", r.Err())
		r = wire.NewReader("test", make([]byte, n))
		read(&r)
		if err := r.Done(); err != nil {
			t.Fatalf("exact %d-byte field: %v", n, err)
		}
	}

	// 6 bytes after the count hold exactly three 2-byte elements.
	r := wire.NewReader("test", []byte{3, 0, 0, 0, 0, 0, 0})
	if n := r.Count("pairs", 2); n != 3 || r.Err() != nil {
		t.Fatalf("Count at the boundary = %d, %v", n, r.Err())
	}
	r = wire.NewReader("test", []byte{4, 0, 0, 0, 0, 0, 0})
	if n := r.Count("pairs", 2); n != 0 {
		t.Fatalf("Count past the boundary = %d", n)
	}
	requireCorrupt(t, "Count past the boundary", r.Err())

	step := func(prev int64, min uint64, delta uint64) (int64, error) {
		r := wire.NewReader("test", wire.AppendUvarint(nil, delta))
		return r.Step(prev, min), r.Done()
	}
	if v, err := step(math.MaxInt64-1, 1, 1); v != math.MaxInt64 || err != nil {
		t.Fatalf("Step onto MaxInt64 = %d, %v", v, err)
	}
	if v, err := step(-1, 1, 1); v != 0 || err != nil {
		t.Fatalf("Step(-1, +1) = %d, %v", v, err)
	}
	for name, c := range map[string][3]uint64{
		"past MaxInt64":       {math.MaxInt64, 0, 1},
		"delta above int64":   {0, 0, math.MaxInt64 + 1},
		"delta wraps to same": {5, 0, math.MaxUint64},
		"below min":           {5, 1, 0},
	} {
		_, err := step(int64(c[0]), c[1], c[2])
		requireCorrupt(t, "Step "+name, err)
	}

	r = wire.NewReader("test", []byte("DMXX\x01\x00"))
	r.Magic("DMXX")
	if r.Uvarint() != 1 {
		t.Fatal("read after magic")
	}
	requireCorrupt(t, "trailing byte", r.Done())
	r = wire.NewReader("test", []byte("DMX"))
	r.Magic("DMXX")
	requireCorrupt(t, "short magic", r.Err())
}

// TestDyadicFloat: the fast path must reject every value whose round
// trip would not be bit-identical, and the cursor must accept a float in
// exactly the one spelling an encoder picks for it.
func TestDyadicFloat(t *testing.T) {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		0.1, math.Pi, math.SmallestNonzeroFloat64, math.MaxFloat64,
		float64(int64(1)<<41+4096) / 4096, 1.0 / 8192}
	for _, v := range bad {
		if m, ok := wire.DyadicIndex(v); ok {
			t.Fatalf("DyadicIndex(%g) = %d, want rejection", v, m)
		}
		r := wire.NewReader("test", wire.AppendF64(nil, v))
		if got := r.Float(false); math.Float64bits(got) != math.Float64bits(v) || r.Done() != nil {
			t.Fatalf("raw Float(%g) = %g, %v", v, got, r.Err())
		}
	}
	good := map[float64]int64{0: 0, 0.5: 2048, -0.25: -1024, 1: 4096,
		3.0 / 4096: 3, float64(int64(1)<<41) / 4096: 1 << 41, -float64(int64(1)<<41) / 4096: -(1 << 41)}
	for v, want := range good {
		m, ok := wire.DyadicIndex(v)
		if !ok || m != want {
			t.Fatalf("DyadicIndex(%g) = %d,%v, want %d,true", v, m, ok, want)
		}
		r := wire.NewReader("test", wire.AppendVarint(nil, m))
		if got := r.Float(true); got != v || r.Done() != nil {
			t.Fatalf("dyadic Float(%d) = %g, %v; want %g", m, got, r.Err(), v)
		}
		// The same value sent raw is a second spelling: rejected.
		r = wire.NewReader("test", wire.AppendF64(nil, v))
		r.Float(false)
		requireCorrupt(t, "raw spelling of a dyadic value", r.Err())
	}
	// An index past the encoder's bound would have travelled raw.
	r := wire.NewReader("test", wire.AppendVarint(nil, 1<<41+1))
	r.Float(true)
	requireCorrupt(t, "dyadic index out of range", r.Err())
}
