package obs

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSlowLogThresholdAndOrder(t *testing.T) {
	l := NewSlowLog(4, 10*time.Millisecond)
	l.Observe("fast", 5*time.Millisecond, 1, Size{}, nil)
	l.Observe("slow-a", 20*time.Millisecond, 10, Size{}, nil)
	l.Observe("slow-b", 40*time.Millisecond, 20, Size{}, nil)
	l.Observe("slow-c", 30*time.Millisecond, 15, Size{}, nil)

	got := l.Worst(10)
	if len(got) != 3 {
		t.Fatalf("got %d entries, want 3 (threshold must drop the fast one)", len(got))
	}
	if got[0].Query != "slow-b" || got[1].Query != "slow-c" || got[2].Query != "slow-a" {
		t.Errorf("order = %s,%s,%s; want slow-b,slow-c,slow-a", got[0].Query, got[1].Query, got[2].Query)
	}
	if top := l.Worst(1); len(top) != 1 || top[0].Query != "slow-b" {
		t.Errorf("Worst(1) = %+v", top)
	}
}

func TestSlowLogRingEviction(t *testing.T) {
	l := NewSlowLog(3, 0)
	for i := 0; i < 10; i++ {
		l.Observe("q", time.Duration(i)*time.Millisecond, uint64(i), Size{}, nil)
	}
	got := l.Worst(10)
	if len(got) != 3 {
		t.Fatalf("ring holds %d, want 3", len(got))
	}
	// Only the 3 most recent observations survive; they happen to also
	// be the slowest here.
	if got[0].DA != 9 || got[1].DA != 8 || got[2].DA != 7 {
		t.Errorf("ring kept wrong entries: %+v", got)
	}
}

func TestSlowLogTieBreakDeterministic(t *testing.T) {
	l := NewSlowLog(8, 0)
	for i := 0; i < 5; i++ {
		l.Observe("same", time.Millisecond, uint64(i), Size{}, nil)
	}
	a, b := l.Worst(5), l.Worst(5)
	for i := range a {
		if a[i].Seq != b[i].Seq {
			t.Fatalf("tie order unstable at %d: %d vs %d", i, a[i].Seq, b[i].Seq)
		}
	}
	// Newer first on equal duration.
	for i := 1; i < len(a); i++ {
		if a[i-1].Seq < a[i].Seq {
			t.Errorf("equal durations not newest-first: seq %d before %d", a[i-1].Seq, a[i].Seq)
		}
	}
}

func TestSlowLogCapturesPhases(t *testing.T) {
	da := &fakeDA{}
	tr := NewTrace(da.read)
	tr.Begin(PhaseQuery)
	tr.Begin(PhaseFetch)
	da.n += 6
	tr.End()
	tr.End()

	l := NewSlowLog(2, 0)
	l.Observe("roi", time.Second, 6, Size{}, tr)
	tr.Reset() // entry must not alias the reused trace

	got := l.Worst(1)
	if len(got) != 1 || len(got[0].Phases) != 2 {
		t.Fatalf("entry = %+v", got)
	}
	if got[0].Phases[1].Name != "dm_fetch" || got[0].Phases[1].DA != 6 {
		t.Errorf("phase breakdown = %+v", got[0].Phases)
	}
}

func TestSlowLogHandler(t *testing.T) {
	l := NewSlowLog(4, 0)
	l.Observe("roi", 2*time.Second, 12, Size{RecordsFetched: 94, Strips: 64}, nil)
	rec := httptest.NewRecorder()
	SlowLogHandler(l).ServeHTTP(rec, httptest.NewRequest("GET", "/slowlog?n=5", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var body struct {
		ThresholdNanos int64       `json:"threshold_nanos"`
		Entries        []SlowEntry `json:"entries"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(body.Entries) != 1 || body.Entries[0].DA != 12 {
		t.Errorf("body = %+v", body)
	}
	// The size rides at the entry's top level, beside disk_accesses.
	if !strings.Contains(rec.Body.String(), `"disk_accesses":12,"records_fetched":94,"strips":64`) ||
		body.Entries[0].Size != (Size{RecordsFetched: 94, Strips: 64}) {
		t.Errorf("size not on the entry: %s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	SlowLogHandler(l).ServeHTTP(rec, httptest.NewRequest("GET", "/slowlog?n=bogus", nil))
	if rec.Code != 400 {
		t.Errorf("bad n: status %d, want 400", rec.Code)
	}
}

// TestSlowLogConcurrentObserveWithTraces hammers one slow log from many
// goroutines, each observing with its own trace carrying spans — the
// -race regression for the wire-encoding path added to Observe. Every
// retained entry must carry a decodable wire trace whose total DA
// matches the entry's.
func TestSlowLogConcurrentObserveWithTraces(t *testing.T) {
	l := NewSlowLog(64, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr := NewTrace(nil)
			for i := 0; i < 50; i++ {
				tr.Reset()
				tr.Begin(PhaseQuery)
				tr.Begin(PhaseMaterialize)
				tr.AddDA(uint64(g + 1))
				tr.End()
				tr.End()
				l.Observe(fmt.Sprintf("q-%d-%d", g, i), time.Duration(i)*time.Microsecond, uint64(g+1), Size{}, tr)
			}
		}(g)
	}
	wg.Wait()
	entries := l.Worst(0)
	if len(entries) != 64 {
		t.Fatalf("retained %d entries, want the full 64-capacity ring", len(entries))
	}
	for _, e := range entries {
		if e.TraceWire == "" {
			t.Fatalf("entry %q has no wire trace", e.Query)
		}
		buf, err := base64.StdEncoding.DecodeString(e.TraceWire)
		if err != nil {
			t.Fatalf("entry %q: wire not base64: %v", e.Query, err)
		}
		wt, err := DecodeTraceWire(buf)
		if err != nil {
			t.Fatalf("entry %q: %v", e.Query, err)
		}
		if wt.TotalDA() != e.DA {
			t.Errorf("entry %q: wire trace DA %d, entry DA %d", e.Query, wt.TotalDA(), e.DA)
		}
	}
}
