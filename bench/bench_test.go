package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// TestBenchmarkFile checks the declaration the driver reads: it parses,
// stays inside the contract's caps, and says exactly what the harness's
// own tables say.
func TestBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) < 2 || len(f.Workloads) > 8 || len(f.EndToEnd) < 1 || len(f.EndToEnd) > 16 || len(f.PerLayer) < 1 || len(f.PerLayer) > 128 {
		t.Fatalf("caps exceeded: %d workloads, %d end-to-end, %d per-layer metrics", len(f.Workloads), len(f.EndToEnd), len(f.PerLayer))
	}
	if !reflect.DeepEqual(f.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(f.Paths, []string{"bench"}) {
		t.Fatalf("command %v paths %v", f.Command, f.Paths)
	}
	if f.RunSeconds != runSeconds {
		t.Fatalf("run_seconds %d, harness default %d", f.RunSeconds, runSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+ of at most 64", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, harness has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		use(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q (%q), harness %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the harness table:\n%+v\n%+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the harness table")
	}
	var setup, maxBound float64
	for _, d := range f.EndToEnd {
		use(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		maxBound = max(maxBound, d.Bound)
		if d.Name == "setup_s" {
			setup = d.Bound
			if d.Unit != "s" || d.Better != lower {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setup == 0 || setup < maxBound {
		t.Errorf("setup_s must be declared with the largest bound (has %g, largest %g)", setup, maxBound)
	}
	for _, d := range append(append([]metricDef(nil), f.EndToEnd...), f.PerLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range f.PerLayer {
		use(d.Name)
	}
}

// TestEveryMetricEmittedOnce runs both passes of every workload on a 65²
// terrain with a few dozen ops and checks that a run prints and returns
// exactly the declared metrics, each once, and that every answer was
// verified exact. (The separation guards are sized for 257² and are not
// asserted here.)
func TestEveryMetricEmittedOnce(t *testing.T) {
	small := plan{Warm: 6, Rounds: 2, Round: 6, ConcRound: 4, Clients: 2}
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			// The untraced pass emits the twelve end-to-end metrics and
			// gives the driver the nine BENCHMARK.json declares end to end.
			p, defs, line := small, compared, endToEnd
			if traced {
				p.Traced, p.Probes, defs, line = 6, 2, perLayer, perLayer
			}
			var log bytes.Buffer
			res, err := runWorkload(runConfig{workload: w.name, seed: 3, size: 65, plan: p, traced: traced, outDir: t.TempDir(), log: &log})
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.name, traced, err, log.String())
			}
			if res.Failed != 0 || res.Attempted == 0 || res.Verified != res.Attempted {
				t.Errorf("%s traced=%v: attempted %d, verified %d, failed %d\n%s", w.name, traced, res.Attempted, res.Verified, res.Failed, log.String())
			}
			printed := make(map[string]int)
			for _, line := range strings.Split(log.String(), "\n") {
				if f := strings.Fields(line); len(f) >= 4 && f[0] == w.name && f[1] != "samples" && f[1] != "verified_ops" {
					printed[f[1]]++
				}
			}
			for _, d := range defs {
				if printed[d.Name] != 1 {
					t.Errorf("%s traced=%v: %s printed %d times", w.name, traced, d.Name, printed[d.Name])
				}
				if mv, ok := res.Metrics[d.Name]; !ok || mv.Unit != d.Unit {
					t.Errorf("%s traced=%v: %s missing from the result, or unit %q != %q", w.name, traced, d.Name, mv.Unit, d.Unit)
				}
				delete(printed, d.Name)
			}
			if len(printed) != 0 || len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: undeclared metrics emitted: %v (%d in result, %d declared)", w.name, traced, printed, len(res.Metrics), len(defs))
			}
			got := res.line().Metrics
			for _, d := range line {
				if got[d.Name] != res.Metrics[d.Name] {
					t.Errorf("%s traced=%v: %s on the driver's line is %v, the result has %v", w.name, traced, d.Name, got[d.Name], res.Metrics[d.Name])
				}
			}
			if len(got) != len(line) {
				t.Errorf("%s traced=%v: %d metrics on the driver's line, %d declared", w.name, traced, len(got), len(line))
			}
		}
	}
}

func TestInputsDeterministic(t *testing.T) {
	p := plan{Warm: 5, Rounds: 2, Round: 20, ConcRound: 10, Clients: 2, Traced: 10}
	for i := range workloads {
		name := workloads[i].name
		a, err := genInputs(name, 7, p)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := genInputs(name, 7, p)
		c, _ := genInputs(name, 8, p)
		if a.hash() != b.hash() {
			t.Errorf("%s: same seed, different op lists", name)
		}
		if a.hash() == c.hash() {
			t.Errorf("%s: different seeds, same op lists", name)
		}
		if len(a.serial) != 40 || len(a.conc) != 2 || len(a.conc[0]) != 20 || len(a.traced) != 10 {
			t.Errorf("%s: wrong op counts: %d serial, %d conc clients, %d traced", name, len(a.serial), len(a.conc), len(a.traced))
		}
	}
	if _, err := genInputs("nope", 1, p); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestVerdict(t *testing.T) {
	lat := metricDef{Name: "op_p50_ms", Unit: "ms", Better: lower, Bound: 0.10}
	tput := metricDef{Name: "ops_per_s", Unit: "1/s", Better: higher, Bound: 0.10}
	count := metricDef{Name: "allocs_per_op", Unit: "count", Better: lower, Bound: 0.05}
	da, wire, failed := userCounters[0], userCounters[1], userCounters[2]
	for _, tc := range []struct {
		d                 metricDef
		base, cand, noise float64
		want              string
	}{
		{lat, 10, 10.5, 0.02, verdictOK},
		{lat, 10, 11.5, 0.02, verdictRegressed},
		{lat, 10, 8.5, 0.02, verdictImproved},
		{lat, 10, 8.5, 0.30, verdictUnresolved},  // a gain inside the noise is no gain
		{lat, 10, 11.5, 0.30, verdictUnresolved}, // nor a loss a loss
		{tput, 100, 85, 0.02, verdictRegressed},  // higher is better: fewer ops/s is worse
		{tput, 100, 115, 0.02, verdictImproved},
		{tput, 100, 95, 0.02, verdictOK},
		{count, 1000, 1060, 0, verdictRegressed},
		{count, 1000, 1040, 0, verdictOK},
		{count, 0, 0, 0, verdictOK},
		{count, 0, 3, 0, verdictRegressed}, // off a zero base any move is outside a relative bound
		// da_per_op may move by max(2%, 0.05): the floor rules near zero,
		// the share on cold_direct's 190.
		{da, 0, 0.04, 0, verdictOK},
		{da, 0.02, 0.08, 0, verdictRegressed},
		{da, 190, 193, 0, verdictOK},
		{da, 190, 195, 0, verdictRegressed},
		{da, 190, 120, 0, verdictImproved},
		{wire, 533000, 539000, 0, verdictRegressed},
		{wire, 0, 0, 0, verdictOK}, // cold_direct has no wire
		{failed, 0, 0, 0, verdictOK},
		{failed, 0, 0.001, 0, verdictRegressed}, // absolute 0
	} {
		if got, _ := verdict(tc.d, tc.base, tc.cand, tc.noise); got != tc.want {
			t.Errorf("%s base %g cand %g noise %g: %s, want %s", tc.d.Name, tc.base, tc.cand, tc.noise, got, tc.want)
		}
	}
	// Rounds that differ widely from each other (they run different ops)
	// but move together between the two runs resolve a small shift; rounds
	// that move every which way between the runs do not.
	baseRounds := []float64{3.3, 5.2, 4.4, 3.4, 4.9}
	steady := []float64{3.4, 5.4, 4.5, 3.5, 5.1}
	erratic := []float64{4.3, 3.9, 5.9, 2.6, 6.0}
	if n := pairedNoise(baseRounds, steady); n > 0.02 {
		t.Errorf("paired noise of rounds that move together is %g", n)
	}
	if n := pairedNoise(baseRounds, erratic); n < 0.25 {
		t.Errorf("paired noise of rounds that move apart is %g", n)
	}
	if r := resolution(baseRounds); r < 0.2 {
		t.Errorf("a lone run with rounds %v claims a resolution of %g", baseRounds, r)
	}
	a := header{Workload: "hot_patch", Seed: 1, NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Plan: plan{Round: 10}, Note: "x"}
	b := a
	b.Note = "y" // prose, not identity
	if err := comparable(a, b); err != nil {
		t.Errorf("headers differing only in the note refused: %v", err)
	}
	for _, mutate := range []func(*header){
		func(h *header) { h.Seed = 2 },
		func(h *header) { h.NumCPU = 4 },
		func(h *header) { h.GOMAXPROCS = 1 },
		func(h *header) { h.GoVersion = "go1.25.0" },
		func(h *header) { h.Plan.Round = 11 },
		func(h *header) { h.Plan.Clients = 3 },
	} {
		b := a
		mutate(&b)
		if comparable(a, b) == nil {
			t.Errorf("headers %+v and %+v accepted as comparable", a, b)
		}
	}
}

// TestCompareMissing: a metric or a workload's file that only one side
// has fails the comparison; it is never read as 0 (which would pass as
// improved), and never aborts the other workloads' rows.
func TestCompareMissing(t *testing.T) {
	write := func(dir, workload string, drop string) {
		t.Helper()
		r := result{Header: header{Workload: workload, Seed: 1}}
		r.Metrics = make(map[string]metricValue)
		for _, d := range compared {
			if d.Name != drop {
				r.Metrics[d.Name] = metricValue{Value: 1, Unit: d.Unit}
			}
		}
		if err := r.write(dir); err != nil {
			t.Fatal(err)
		}
	}
	find := func(rows []row, workload, metric string) row {
		for _, r := range rows {
			if r.workload == workload && r.metric == metric {
				return r
			}
		}
		t.Fatalf("no row for %s %s in %+v", workload, metric, rows)
		return row{}
	}
	base, cand := t.TempDir(), t.TempDir()
	var out bytes.Buffer
	if _, err := compareDirs(base, cand, &out); err == nil {
		t.Error("two empty directories compared without an error")
	}
	write(base, "hot_patch", "")
	write(cand, "hot_patch", "")
	rows, err := compareDirs(base, cand, &out)
	if err != nil || len(rows) != len(compared) || !passed(rows) {
		t.Fatalf("one workload on both sides: %d rows, passed %v, err %v\n%s", len(rows), passed(rows), err, out.String())
	}
	if !strings.Contains(out.String(), fmt.Sprintf("%-18s in neither directory, skipped", "cold_direct")) {
		t.Errorf("a workload neither side ran is not noted:\n%s", out.String())
	}
	write(cand, "hot_patch", "da_per_op")
	rows, err = compareDirs(base, cand, &out)
	if err != nil || passed(rows) || find(rows, "hot_patch", "da_per_op").verdict != verdictMissing || find(rows, "hot_patch", "op_p50_ms").verdict != verdictOK {
		t.Errorf("metric missing on the candidate side: passed %v, err %v, rows %+v", passed(rows), err, rows)
	}
	write(cand, "hot_patch", "")
	write(base, "churn_tile", "")
	rows, err = compareDirs(base, cand, &out)
	if err != nil || passed(rows) || find(rows, "churn_tile", "*").verdict != verdictMissing || len(rows) != len(compared)+1 {
		t.Errorf("workload run on the base side only: passed %v, err %v, rows %+v", passed(rows), err, rows)
	}
}

// TestLedgerAA holds the checked-in ledger to what it is there to show:
// two sets of runs of one commit agree within the benchmark's own bounds
// on all twelve metrics of all five workloads, and the counts the program
// makes repeat exactly.
func TestLedgerAA(t *testing.T) {
	var out bytes.Buffer
	rows, err := compareDirs("ledger/seed/a", "ledger/seed/b", &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(workloads)*len(compared) {
		t.Errorf("%d rows, want %d workloads x %d metrics", len(rows), len(workloads), len(compared))
	}
	for _, r := range rows {
		if r.verdict != verdictOK {
			t.Errorf("%s %s: %s (base %g, candidate %g)", r.workload, r.metric, r.verdict, r.base, r.cand)
		}
		if r.exact && !r.identical {
			t.Errorf("%s %s must repeat exactly: base %v, candidate %v", r.workload, r.metric, r.base, r.cand)
		}
	}
}

// TestHostSpeed: an op is read against the median probe of its
// neighbourhood, so that one probe hit by an interrupt moves nothing, a
// slow stretch of the host scales the ops inside it and only those, and a
// host at the reference speed leaves a latency as measured.
func TestHostSpeed(t *testing.T) {
	probes := make([]float64, 40)
	for i := range probes {
		probes[i] = probeRefMs
	}
	probes[7] = 5 * probeRefMs // a lone outlier
	for i := 20; i < 40; i++ {
		probes[i] = 1.25 * probeRefMs // the host slows down by a quarter
	}
	got := speeds(probes)
	for i, s := range got {
		want := 1.0
		if i >= 20+probeWindow {
			want = 1 / 1.25
		} else if i > 20-probeWindow {
			continue // the windows that straddle the change
		}
		if math.Abs(s-want) > 1e-12 {
			t.Errorf("op %d: speed %g, want %g", i, s, want)
		}
	}
	p := &prober{}
	if ms := p.probe(); ms <= 0 {
		t.Errorf("probe took %g ms", ms)
	}
	if n := testing.AllocsPerRun(5, func() { p.probe() }); n != 0 {
		t.Errorf("the probe allocates (%g per run): it runs inside the allocation window", n)
	}
}

func TestSelfTimes(t *testing.T) {
	// Root 0..100 with a serial child 10..30 (which has its own child
	// 15..25) and two parallel children 40..70 and 50..90.
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 1, Start: 15, End: 25},
		{ID: 3, Parent: 0, Start: 40, End: 70},
		{ID: 4, Parent: 0, Start: 50, End: 90},
		{ID: 5, Parent: -1, Start: 200, End: 260}, // a second tree, childless
	}
	self := selfTimes(spans)
	// Root: its duration minus the union of child coverage, 20 + 50.
	want := []float64{30, 10, 10, 20, 30, 60}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d: self %g, want %g (all: %v)", i, self[i], want[i], self)
		}
	}
	if sum := self[0] + self[1] + self[2] + self[3] + self[4]; sum != 100 {
		t.Errorf("self times of the tree sum to %g, root wall is 100", sum)
	}
	// A child that overruns its parent is clipped to it.
	over := selfTimes([]span{{ID: 0, Parent: -1, Start: 0, End: 10}, {ID: 1, Parent: 0, Start: 5, End: 50}})
	if over[0] != 5 || over[1] != 5 {
		t.Errorf("overrunning child: %v, want [5 5]", over)
	}
}
