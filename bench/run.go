package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"

	"dmesh/internal/dm"
	"dmesh/internal/tilecache"
)

// header says what was run and on what: two result files are comparable
// only when theirs agree.
type header struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	Size       int    `json:"terrain_size"`
	Plan       plan   `json:"plan"`
	InputsHash string `json:"inputs_hash"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Note       string `json:"note"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is what the driver reads off the last line of standard
// output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is one run of one workload: the file the run writes. Its
// metrics are the twelve end-to-end ones (untraced pass) or the per-layer
// ledger (traced pass).
type result struct {
	Header header `json:"header"`
	// Rounds is, per timing metric, the figure of each round of its leg.
	// Noise is estimated from these: a run's own resolution, and a
	// comparison's pairedNoise.
	Rounds   map[string][]float64 `json:"rounds"`
	Guards   map[string]bool      `json:"guards"`
	Verified int                  `json:"verified_ops"`
	driverLine
}

// line is the driver's line: the result with exactly the metrics
// BENCHMARK.json declares for the pass. The untraced pass's three user
// counters are declared per layer there, so they stay in the file only.
func (r *result) line() driverLine {
	l := r.driverLine
	if !r.Header.Trace {
		l.Metrics = make(map[string]metricValue, len(endToEnd))
		for _, d := range endToEnd {
			l.Metrics[d.Name] = r.Metrics[d.Name]
		}
	}
	return l
}

// planFor turns the -seconds budget into fixed op counts: 60% of the
// budget goes to the serial leg and 40% to the concurrent leg, at the
// workload's reference-host rates, so on that host the measured legs take
// about the budget. The traced pass halves both legs and spends the rest
// on the traced leg and the layer probes.
func planFor(w *workloadDef, seconds int, traced bool) plan {
	const rounds = 5
	budget := float64(seconds)
	p := plan{Warm: w.warm, Rounds: rounds, Clients: clientCount()}
	if traced {
		budget /= 2
	}
	p.Round = max(4, int(w.serialRate*budget*0.6/rounds))
	p.ConcRound = max(4, int(w.concRate*budget*0.4/rounds))
	if traced {
		p.Traced = max(4, p.Round*rounds/2) // a quarter of the untraced serial leg
		p.Probes = min(p.Traced, 24)
	}
	return p
}

// clientCount is the concurrent leg's client count: one per CPU, so that
// clients never outnumber what the host can run (on this host, 2).
func clientCount() int { return max(1, min(runtime.NumCPU(), runtime.GOMAXPROCS(0))) }

type runConfig struct {
	workload string
	seed     int64
	size     int
	plan     plan
	traced   bool
	outDir   string
	log      io.Writer // human-readable lines
}

// counters is a snapshot of the program's public counters around a leg.
type counters struct {
	cache  tilecache.Stats
	bd     dm.AccessBreakdown
	errors uint64
}

func snapshot(s *system) counters {
	return counters{cache: s.cacheStats(), bd: s.breakdown(), errors: s.errorResponses()}
}

var gcSamples = []string{"/gc/cycles/total:gc-cycles", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readGC() (cycles uint64, gcCPU, totalCPU float64) {
	s := make([]metrics.Sample, len(gcSamples))
	for i, n := range gcSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Float64(), s[2].Value.Float64()
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runWorkload runs one workload in a fresh state and returns its result.
// The untraced pass yields the end-to-end metrics; the traced pass the
// per-layer ledger.
func runWorkload(cfg runConfig) (*result, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	in, err := genInputs(w.name, cfg.seed, cfg.plan)
	if err != nil {
		return nil, err
	}
	hdr := header{
		Workload: w.name, Seed: cfg.seed, Trace: cfg.traced, Size: cfg.size, Plan: cfg.plan,
		InputsHash: fmt.Sprintf("%016x", in.hash()),
		NumCPU:     runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Note: fmt.Sprintf("closed loop; clients and servers share this process and its %d CPUs; HTTP is loopback; store reads hit the OS page cache", runtime.NumCPU()),
	}
	hj, _ := json.Marshal(hdr)
	fmt.Fprintf(cfg.log, "# %s\n", hj)

	sys, err := newSystem(cfg.size, cfg.outDir)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	if err := sys.buildTerrain(); err != nil {
		return nil, err
	}
	if err := w.start(sys); err != nil {
		return nil, err
	}
	names := []string{"s"}
	concNames := make([]string, cfg.plan.Clients)
	for c := range concNames {
		concNames[c] = fmt.Sprintf("c%d", c)
	}
	// Warm-up is part of set-up: caches fill and lazy initialization
	// finishes before anything is timed.
	if err := sys.stage(stageWarmup, func() error {
		for _, o := range in.warm {
			if a := w.do(sys, "warm", o, false); a.err != nil {
				return a.err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	setup := sys.setupSeconds()

	ref, err := newReference(sys.terrain)
	if err != nil {
		return nil, err
	}
	r := &runner{w: w, sys: sys, ref: ref, log: cfg.log}

	gc0, gcCPU0, cpu0 := readGC()
	c0 := snapshot(sys)
	serial := r.leg([][]op{in.serial}, names, cfg.plan.Rounds, cfg.plan.Round, false)
	c1 := snapshot(sys)
	conc := r.leg(in.conc, concNames, cfg.plan.Rounds, cfg.plan.ConcRound, false)
	c2 := snapshot(sys)
	gc1, gcCPU1, cpu1 := readGC()

	res := &result{Header: hdr, Guards: make(map[string]bool)}
	res.Metrics = make(map[string]metricValue)
	p95 := func(xs []float64) float64 { return quantile(xs, 0.95) }
	tput := make([]float64, len(conc.wall))
	for i, wall := range conc.wall {
		tput[i] = ratio(float64(len(conc.lat[i])), wall)
	}
	res.Rounds = map[string][]float64{
		"op_p50_ms":         perRound(serial.lat, median),
		"op_p95_ms":         perRound(serial.lat, p95),
		"first_mesh_p50_ms": perRound(serial.first, median),
		"ops_per_s":         tput,
	}
	ops := float64(serial.ops)
	all := flatten(serial.lat)
	opP50 := median(all)
	firstP50 := median(flatten(serial.first))
	daPerOp := ratio(float64(serial.da), ops)
	hitRatio := ratio(float64(c1.cache.Hits-c0.cache.Hits), float64(c1.cache.TileLookups-c0.cache.TileLookups))
	fullFrac := ratio(float64(serial.fullFrames), float64(serial.frames))

	var layers map[string]float64
	var traced *legStats
	if cfg.traced {
		// The traced leg: the same serial closed loop with the program's
		// own tracing on, then the harness-side shadow pipelines.
		traced = r.leg([][]op{in.traced}, []string{"t"}, 1, len(in.traced), true)
		tr := newTracer()
		layers, err = probeLayers(sys, w, in.traced, cfg.plan.Probes, tr)
		if err != nil {
			return nil, err
		}
		if err := tr.write(filepath.Join(cfg.outDir, w.name+".spans.jsonl")); err != nil {
			return nil, err
		}
	}

	// What the run retains: release the harness's own state first, so the
	// figure is the program's caches, sessions and stores.
	r.ref, ref = nil, nil
	goroutines := runtime.NumGoroutine()
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	res.Verified = serial.verified + conc.verified
	res.Attempted = serial.ops + conc.ops
	res.Failed = serial.failed + conc.failed
	if traced != nil {
		res.Verified += traced.verified
		res.Attempted += traced.ops
		res.Failed += traced.failed
	}

	values := map[string]float64{
		"op_p50_ms":                  opP50,
		"op_p95_ms":                  p95(all),
		"first_mesh_p50_ms":          firstP50,
		"ops_per_s":                  ratio(float64(len(flatten(conc.lat))), sum(conc.wall)),
		"allocs_per_op":              ratio(float64(serial.allocObjs), ops),
		"alloc_kb_per_op":            ratio(float64(serial.allocBytes), ops) / 1024,
		"live_heap_mb":               float64(ms.HeapAlloc) / (1 << 20),
		"store_data_bytes_per_point": sys.dataBytesPerPoint(),
		"setup_s":                    setup,
		"da_per_op":                  daPerOp,
		"wire_bytes_per_op":          ratio(float64(serial.wire), ops),
		"failed_frac":                ratio(float64(res.Failed), float64(res.Attempted)),
	}
	defs := compared
	if cfg.traced {
		defs = perLayer
		missesConc := float64(c2.cache.Misses - c1.cache.Misses)
		missesSerial := float64(c1.cache.Misses - c0.cache.Misses)
		derive := dmDeriveSeconds(sys)
		for k, v := range map[string]float64{
			"serve.error_responses":             float64(c2.errors - c0.errors),
			"tilecache.hit_ratio":               hitRatio,
			"tilecache.evictions_per_op":        ratio(float64(c1.cache.Evictions-c0.cache.Evictions), ops),
			"tilecache.dedup_ratio":             ratio(float64(c2.cache.DedupedMisses-c1.cache.DedupedMisses), missesConc),
			"tilecache.materialize_da_per_miss": ratio(float64(c1.cache.MaterializeDA-c0.cache.MaterializeDA), missesSerial),
			"tilecache.resident_mb":             float64(c2.cache.Bytes) / (1 << 20),
			"pager.da_data_per_op":              ratio(float64(c1.bd.Data-c0.bd.Data), ops),
			"pager.da_overflow_per_op":          ratio(float64(c1.bd.Overflow-c0.bd.Overflow), ops),
			"pager.da_index_per_op":             ratio(float64(c1.bd.Index-c0.bd.Index), ops),
			"pager.da_idindex_per_op":           ratio(float64(c1.bd.IDIndex-c0.bd.IDIndex), ops),
			"rtree.index_da_per_op":             ratio(float64(c1.bd.Index-c0.bd.Index), ops),
			"obs.trace_overhead_frac":           ratio(median(flatten(traced.lat))-opP50, opP50),
			"build.heightfield_s":               sys.stages[stageHeightfield],
			"build.simplify_s":                  sys.stages[stageTerrain] - derive,
			"build.dm_derive_s":                 derive,
			"build.store_s":                     sys.stages[stageStore],
			"build.costmodel_s":                 sys.stages[stageCostModel],
			"build.server_start_s":              sys.stages[stageServerStart],
			"build.warmup_s":                    sys.stages[stageWarmup],
			"runtime.gc_cycles_per_kop":         ratio(float64(gc1-gc0)*1000, float64(serial.ops+conc.ops)),
			"runtime.gc_cpu_frac":               ratio(gcCPU1-gcCPU0, cpu1-cpu0),
			"runtime.goroutines_end":            float64(goroutines),
			"client.op_p99_ms":                  quantile(all, 0.99),
			"client.op_max_ms":                  quantile(all, 1),
			"client.samples":                    float64(len(all)),
			"client.conc_op_p50_ms":             median(flatten(conc.lat)),
			"client.round_spread":               spread(perRound(serial.lat, median)),
			"client.host_speed":                 ratio(probeRefMs, median(serial.probes)),
		} {
			values[k] = v
		}
		for _, p := range tracePhases {
			values["obs.phase."+p+"_self_ms"] = ratio(msOf(traced.phases[p]), float64(traced.verified))
		}
		// A workload that serves coherent frames reports its own; the
		// others take the probe session's.
		if serial.frames > 0 {
			layers["dm.coherent_full_frac"] = fullFrac
			layers["dm.coherent_retained_frac"] = ratio(float64(serial.retained), float64(serial.retained+serial.fetched))
			layers["dm.coherent_da_per_frame"] = ratio(float64(serial.frameDA), float64(serial.frames))
		}
		// Redirects are a failure count: the probes' plus every leg's.
		layers["cluster.redirects"] += float64(serial.redirected + conc.redirected + traced.redirected)
		for k, v := range layers {
			values[k] = v
		}
	}

	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (value %v)", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		note := ""
		if d.Bound > 0 && resolution(res.Rounds[d.Name]) > d.Bound {
			note = " unresolved"
		}
		fmt.Fprintf(cfg.log, "%s %s %.6g %s%s\n", w.name, d.Name, v, d.Unit, note)
	}
	fmt.Fprintf(cfg.log, "%s samples serial=%d in %.2fs concurrent=%d in %.2fs clients=%d\n",
		w.name, len(all), sum(serial.wall), len(flatten(conc.lat)), sum(conc.wall), cfg.plan.Clients)
	fmt.Fprintf(cfg.log, "%s verified_ops %d of %d attempted, %d failed\n", w.name, res.Verified, res.Attempted, res.Failed)

	// Separation guards: each workload must really isolate its layers.
	res.Correct = res.Failed == 0
	g := gauges{daPerOp: daPerOp, hitRatio: hitRatio, fullFrac: fullFrac, firstOverOp: ratio(firstP50, opP50)}
	for _, gd := range w.guards {
		v, ok := gd.check(g)
		res.Guards[w.name+"."+gd.name] = ok
		verdict := "ok"
		if !ok {
			verdict, res.Correct = "FAIL", false
		}
		fmt.Fprintf(cfg.log, "guard %s.%s %s (%.4g)\n", w.name, gd.name, verdict, v)
	}
	return res, nil
}

// dmDeriveSeconds times dm.FromSequence again on the built sequence, so
// that the terrain stage can be split into simplification and Direct
// Mesh derivation without reaching into dmesh.Build.
func dmDeriveSeconds(s *system) float64 {
	var err error
	wall, speed := s.host.around(func() { _, err = dm.FromSequence(s.terrain.Sequence) })
	if err != nil {
		return 0
	}
	return wall * speed
}

func (r *result) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := r.Header.Workload + ".json"
	if r.Header.Trace {
		name = r.Header.Workload + ".layers.json"
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}
