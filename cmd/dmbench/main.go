// Command dmbench reproduces the paper's evaluation: it builds the two
// benchmark datasets, runs the workload behind every figure of Section 6,
// and prints the measured series (average cold-cache disk accesses).
//
// Usage:
//
//	dmbench [-fig all|6a|6b|6c|6d|8a|8b|8c|8d|8e|8f|conn|throughput|flyover|tilecache|faults|dabreakdown|layoutcmp|cluster|stream|obstrace]
//	        [-size N] [-size2 N] [-seed S] [-locations L]
//	        [-resultdir D] [-cpuprofile F] [-memprofile F]
//
// -fig throughput is not a paper figure: it measures concurrent query
// serving against a sharded buffer pool (queries/sec and speedup by
// worker count, with per-query disk accesses held constant).
//
// -fig flyover is not a paper figure either: it measures the
// temporal-coherence extension — mean disk accesses per frame along a
// camera path, full re-query vs the incremental (delta) engine, swept
// over the frame-to-frame overlap on a memory-constrained store.
//
// -fig tilecache measures the shared mesh-tile cache: mean disk accesses
// per query on a skewed (hot-spot) multi-client workload, direct engine
// vs cache-served, with cold-miss and singleflight-dedup counts.
//
// -fig faults is the chaos run: the hot-spot workload served off a
// checksummed store whose (simulated) disk fails reads and flips bits at
// a sweep of fault rates, reporting error rate, degraded-answer rate
// (retry-once), and DA overhead — with zero panics and zero answers that
// differ from a clean oracle store.
//
// -fig dabreakdown is the telemetry figure: the paper's query mix traced
// phase by phase (index descent, record fetch, overflow walks,
// triangulation, planning, tile materialization, stitching), with each
// query's per-phase disk accesses verified to sum exactly to its
// independently counted session total.
//
// -fig layoutcmp is the physical-layout figure: the dabreakdown query
// mix measured under both layouts — str's fixed records and the
// compressed packed encoding — on the same terrain, with the footprint/
// density/DA table written to results/BENCH_compression.json. Its
// headline is packed's records-per-page and data-heap DA against str.
//
// -fig cluster is the scale-out figure: the hot-spot workload answered
// by an in-process sharded tile-serving cluster (consistent-hash
// routing, hot-tile replication, fan-out stitching over real HTTP),
// swept over shard counts. It reports QPS, speedup, tail latency, and
// per-shard disk accesses against the single-node tile-cache steady
// state, and writes the series to results/BENCH_cluster.json. Every
// cluster answer is cross-checked against a single-node oracle.
//
// -fig stream is the progressive-streaming figure: every frame of a
// camera flyover answered as a coarse-to-fine batch stream (the /stream
// wire format), reporting mean bytes to the first renderable frame vs
// bytes to the exact answer, the per-batch byte schedule, and the
// overhead against shipping the exact answer in one shot. Every stream
// is decoded back and verified exactly equal to the direct query; the
// series goes to results/BENCH_stream.json.
//
// -fig obstrace is the distributed-tracing figure: the cluster query
// mix traced end to end over the wire (shard phase traces spliced into
// the router's fan-out spans), decomposed per hop and per phase, with
// the cross-hop accounting invariant — root trace == Σ shard response
// headers == Σ spliced shard spans — hard-checked on every single
// query, including with a shard fail-stopped mid-workload. The legs go
// to results/BENCH_obstrace.json.
//
// Every figure runs on the str layout, the paper's fixed records;
// layoutcmp builds a packed store beside it.
//
// -resultdir redirects the results/ JSON outputs (the benchdiff
// regression gate points it at a scratch directory).
//
// -cpuprofile and -memprofile write pprof profiles of whatever figure
// selection ran (go tool pprof reads them).
//
// The 2M-point and 17M-point datasets of the paper are represented by
// synthetic DEMs ("highland" and "crater"); -size and -size2 set their
// grid side lengths. Defaults are laptop-scale; the figure shapes are
// scale-invariant in this regime (see EXPERIMENTS.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"text/tabwriter"

	"dmesh"
	"dmesh/internal/experiments"
	"dmesh/internal/obs"
	"dmesh/internal/workload"
)

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "dmbench:", err)
		os.Exit(1)
	}
}

// mainErr holds the flag parsing and profile lifecycle; keeping the
// deferred profile flushes out of main lets them run even when the
// selected figure fails.
func mainErr() error {
	var (
		fig       = flag.String("fig", "all", "figure to reproduce (6a..6d, 8a..8f, conn, throughput, flyover, tilecache, faults, dabreakdown, layoutcmp, cluster, stream, obstrace, all)")
		resultDir = flag.String("resultdir", "results", "directory the BENCH_*.json figure outputs go to")
		size      = flag.Int("size", 257, "grid side of the highland dataset (the paper's 2M-point terrain)")
		size2     = flag.Int("size2", 513, "grid side of the crater dataset (the paper's 17M-point terrain)")
		seed      = flag.Int64("seed", 1, "generation seed")
		locations = flag.Int("locations", 20, "random ROI placements averaged per measurement")
		csvOut    = flag.Bool("csv", false, "emit figures as CSV instead of aligned tables")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dmbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "dmbench:", err)
			}
		}()
	}
	env := &benchEnv{
		cfg:       workload.Config{Locations: *locations, Seed: *seed},
		size:      *size,
		size2:     *size2,
		seed:      *seed,
		csv:       *csvOut,
		resultDir: *resultDir,
	}
	return run(env, strings.ToLower(*fig))
}

// benchEnv is the shared setup every figure runner draws on: flag-derived
// parameters plus lazily built, memoized dataset bundles — a runner only
// pays for the datasets it actually touches.
type benchEnv struct {
	cfg         workload.Config
	size, size2 int
	seed        int64
	csv         bool
	resultDir   string

	bundles map[string]*experiments.Bundle
}

// writeJSON persists one figure's series as resultDir/name for the
// EXPERIMENTS.md tables and the benchdiff gate. locations is written only
// when given (the layout sweep records it).
func (e *benchEnv) writeJSON(name string, locations *int, datasets any) error {
	if err := os.MkdirAll(e.resultDir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Sizes     [2]int `json:"sizes"`
		Seed      int64  `json:"seed"`
		Locations *int   `json:"locations,omitempty"`
		Datasets  any    `json:"datasets"`
	}{
		Sizes: [2]int{e.size, e.size2}, Seed: e.seed,
		Locations: locations, Datasets: datasets,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(e.resultDir, name)
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", path)
	return nil
}

// bundle builds (once) and returns the named dataset bundle.
func (e *benchEnv) bundle(name string) (*experiments.Bundle, error) {
	if b, ok := e.bundles[name]; ok {
		return b, nil
	}
	size := e.size
	if name == "crater" {
		size = e.size2
	}
	fmt.Fprintf(os.Stderr, "building %s dataset (%dx%d points, str layout)...\n", name, size, size)
	b, err := experiments.BuildBundle(name, size, e.seed)
	if err != nil {
		return nil, err
	}
	if e.bundles == nil {
		e.bundles = make(map[string]*experiments.Bundle)
	}
	e.bundles[name] = b
	return b, nil
}

// paperFigure adapts one Fig6/Fig8 measurement into a runner: build the
// dataset, run the workload, print the series table (or CSV).
func paperFigure(id, dataset string, f func(*experiments.Bundle, workload.Config) (*experiments.Figure, error)) figureRunner {
	return figureRunner{id: id, run: func(e *benchEnv) error {
		b, err := e.bundle(dataset)
		if err != nil {
			return err
		}
		fig, err := f(b, e.cfg)
		if err != nil {
			return fmt.Errorf("figure %s: %w", id, err)
		}
		if e.csv {
			printFigureCSV(id, fig)
		} else {
			printFigure(id, fig)
		}
		return nil
	}}
}

// figureRunner is one -fig selection: runners share the benchEnv setup,
// so adding a figure is one table entry.
type figureRunner struct {
	id  string
	run func(*benchEnv) error
}

// runners dispatches -fig. Order is the -fig all output order.
func runners() []figureRunner {
	roiFracsH := []float64{0.02, 0.04, 0.06, 0.08, 0.10, 0.12}
	roiFracsC := []float64{0.01, 0.02, 0.03, 0.04, 0.05}
	lodPcts := []float64{0.70, 0.80, 0.90, 0.95, 0.99}
	angleFracs := []float64{0.1, 0.3, 0.5, 0.7, 0.9}

	return []figureRunner{
		{"conn", func(e *benchEnv) error {
			for _, name := range []string{"highland", "crater"} {
				b, err := e.bundle(name)
				if err != nil {
					return err
				}
				printConn(b)
			}
			return nil
		}},
		{"throughput", func(e *benchEnv) error {
			b, err := e.bundle("highland")
			if err != nil {
				return err
			}
			return printThroughput(b, e.cfg)
		}},
		{"flyover", func(e *benchEnv) error {
			for _, name := range []string{"highland", "crater"} {
				b, err := e.bundle(name)
				if err != nil {
					return err
				}
				if err := printFlyover(b, e.cfg); err != nil {
					return err
				}
			}
			return nil
		}},
		paperFigure("6a", "highland", func(b *experiments.Bundle, cfg workload.Config) (*experiments.Figure, error) {
			return b.Fig6ROI(cfg, roiFracsH)
		}),
		paperFigure("6b", "highland", func(b *experiments.Bundle, cfg workload.Config) (*experiments.Figure, error) {
			return b.Fig6LOD(cfg, 0.10, lodPcts)
		}),
		paperFigure("6c", "crater", func(b *experiments.Bundle, cfg workload.Config) (*experiments.Figure, error) {
			return b.Fig6ROI(cfg, roiFracsC)
		}),
		paperFigure("6d", "crater", func(b *experiments.Bundle, cfg workload.Config) (*experiments.Figure, error) {
			return b.Fig6LOD(cfg, 0.05, lodPcts)
		}),
		paperFigure("8a", "highland", func(b *experiments.Bundle, cfg workload.Config) (*experiments.Figure, error) {
			return b.Fig8ROI(cfg, roiFracsH)
		}),
		paperFigure("8b", "highland", func(b *experiments.Bundle, cfg workload.Config) (*experiments.Figure, error) {
			return b.Fig8LOD(cfg, 0.10, lodPcts)
		}),
		paperFigure("8c", "highland", func(b *experiments.Bundle, cfg workload.Config) (*experiments.Figure, error) {
			return b.Fig8Angle(cfg, 0.10, angleFracs)
		}),
		paperFigure("8d", "crater", func(b *experiments.Bundle, cfg workload.Config) (*experiments.Figure, error) {
			return b.Fig8ROI(cfg, roiFracsC)
		}),
		paperFigure("8e", "crater", func(b *experiments.Bundle, cfg workload.Config) (*experiments.Figure, error) {
			return b.Fig8LOD(cfg, 0.05, lodPcts)
		}),
		paperFigure("8f", "crater", func(b *experiments.Bundle, cfg workload.Config) (*experiments.Figure, error) {
			return b.Fig8Angle(cfg, 0.05, angleFracs)
		}),
		{"tilecache", func(e *benchEnv) error {
			for _, name := range []string{"highland", "crater"} {
				b, err := e.bundle(name)
				if err != nil {
					return err
				}
				if err := printTileCache(b, e.seed); err != nil {
					return err
				}
			}
			return nil
		}},
		{"faults", func(e *benchEnv) error {
			for _, name := range []string{"highland", "crater"} {
				b, err := e.bundle(name)
				if err != nil {
					return err
				}
				if err := printFaults(b, e.seed); err != nil {
					return err
				}
			}
			return nil
		}},
		{"dabreakdown", func(e *benchEnv) error {
			fracs := map[string]float64{"highland": 0.10, "crater": 0.05}
			for _, name := range []string{"highland", "crater"} {
				b, err := e.bundle(name)
				if err != nil {
					return err
				}
				if err := printDABreakdown(b, e.cfg, fracs[name]); err != nil {
					return err
				}
			}
			return nil
		}},
		{"layoutcmp", func(e *benchEnv) error {
			fracs := map[string]float64{"highland": 0.10, "crater": 0.05}
			layouts := []dmesh.Layout{dmesh.LayoutSTR, dmesh.LayoutPacked}
			var sweeps []*experiments.LayoutSweep
			for _, name := range []string{"highland", "crater"} {
				b, err := e.bundle(name)
				if err != nil {
					return err
				}
				sweep, err := b.SweepLayouts(e.cfg, fracs[name], 24, layouts)
				if err != nil {
					return fmt.Errorf("layoutcmp: %w", err)
				}
				if err := printLayoutSweep(sweep, fracs[name]); err != nil {
					return err
				}
				sweeps = append(sweeps, sweep)
			}
			return e.writeJSON("BENCH_compression.json", &e.cfg.Locations, sweeps)
		}},
		{"cluster", func(e *benchEnv) error {
			b, err := e.bundle("highland")
			if err != nil {
				return err
			}
			fig, err := b.ClusterScaleOut(e.seed, 8, 20, []int{1, 2, 4, 8})
			if err != nil {
				return fmt.Errorf("cluster: %w", err)
			}
			if err := printCluster(fig); err != nil {
				return err
			}
			return e.writeJSON("BENCH_cluster.json", nil, []*experiments.ClusterFigure{fig})
		}},
		{"stream", func(e *benchEnv) error {
			var figs []*experiments.StreamFigure
			for _, name := range []string{"highland", "crater"} {
				b, err := e.bundle(name)
				if err != nil {
					return err
				}
				fig, err := b.Streaming(e.seed, 24, 0.6, 0.95)
				if err != nil {
					return fmt.Errorf("stream: %w", err)
				}
				if err := printStream(fig); err != nil {
					return err
				}
				figs = append(figs, fig)
			}
			return e.writeJSON("BENCH_stream.json", nil, figs)
		}},
		{"obstrace", func(e *benchEnv) error {
			var figs []*experiments.ObsTraceFigure
			for _, name := range []string{"highland", "crater"} {
				b, err := e.bundle(name)
				if err != nil {
					return err
				}
				fig, err := b.ObsTrace(e.seed, 8, 10, 4)
				if err != nil {
					return fmt.Errorf("obstrace: %w", err)
				}
				if err := printObsTrace(fig); err != nil {
					return err
				}
				figs = append(figs, fig)
			}
			return e.writeJSON("BENCH_obstrace.json", nil, figs)
		}},
	}
}

func run(env *benchEnv, fig string) error {
	ran := false
	for _, r := range runners() {
		if fig != "all" && fig != r.id {
			continue
		}
		ran = true
		if err := r.run(env); err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("unknown figure %q", fig)
	}
	return nil
}

func printFigure(id string, f *experiments.Figure) {
	fmt.Printf("\nFigure %s: %s\n", id, f.Title)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "%s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, "\t%s", s.Method)
	}
	fmt.Fprintln(w)
	if len(f.Series) > 0 {
		for i := range f.Series[0].Points {
			fmt.Fprintf(w, "%.1f", f.Series[0].Points[i].X)
			for _, s := range f.Series {
				fmt.Fprintf(w, "\t%.0f", s.Points[i].DA)
			}
			fmt.Fprintln(w)
		}
	}
	w.Flush()
}

// printFigureCSV emits one figure as CSV rows: figure,x,method,da.
func printFigureCSV(id string, f *experiments.Figure) {
	for _, s := range f.Series {
		for _, p := range s.Points {
			fmt.Printf("%s,%g,%s,%g\n", id, p.X, s.Method, p.DA)
		}
	}
}

// printThroughput runs the concurrent-serving measurement: the fig-6(a)
// uniform workload answered by a worker pool over a sharded buffer pool.
func printThroughput(b *experiments.Bundle, cfg workload.Config) error {
	if b == nil {
		return nil
	}
	workers := []int{1, 2, 4, 8}
	if n := runtime.GOMAXPROCS(0); n > 8 {
		workers = append(workers, n)
	}
	pts, err := b.ParallelThroughput(cfg, 0.06, workers, 20)
	if err != nil {
		return fmt.Errorf("throughput: %w", err)
	}
	fmt.Printf("\nConcurrent serving throughput (%s, %d queries/round, %d pool shards):\n",
		b.Name, pts[0].Queries, runtime.GOMAXPROCS(0))
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "workers\tqueries/sec\tspeedup\tDA/query")
	for _, p := range pts {
		fmt.Fprintf(w, "%d\t%.0f\t%.2fx\t%.1f\n", p.Workers, p.QPS, p.Speedup, p.DAPerQuery)
	}
	return w.Flush()
}

// printFlyover runs the temporal-coherence measurement: a camera path
// answered by full re-query (cold and warm pool) and by the incremental
// coherent engine, on a deliberately memory-constrained store.
func printFlyover(b *experiments.Bundle, cfg workload.Config) error {
	if b == nil {
		return nil
	}
	overlaps := []float64{0.5, 0.7, 0.8, 0.9, 0.95}
	fig, err := b.Flyover(cfg, overlaps, 40)
	if err != nil {
		return fmt.Errorf("flyover: %w", err)
	}
	fmt.Printf("\nFlyover coherence (%s, %d frames/path, pools %d/%d/%d/%d pages, mean DA/frame, frame 0 excluded):\n",
		fig.Name, fig.Frames, fig.Pools.Data, fig.Pools.Overflow, fig.Pools.Index, fig.Pools.IDIndex)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "overlap\trealized\tFullCold\tFullWarm\tIncSB\tIncMB\tWarm/IncSB\tfallbacks")
	for _, p := range fig.Points {
		ratio := 0.0
		if p.IncSBDA > 0 {
			ratio = p.FullWarmDA / p.IncSBDA
		}
		fmt.Fprintf(w, "%.2f\t%.2f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1fx\t%d/%d\n",
			p.Overlap, p.Realized, p.FullColdDA, p.FullWarmDA, p.IncSBDA, p.IncMBDA, ratio,
			p.IncSBFull, p.IncMBFull)
	}
	return w.Flush()
}

// printTileCache runs the shared mesh-tile cache measurement: mean disk
// accesses per query on the skewed multi-client workload, direct engine
// vs cache-served.
func printTileCache(b *experiments.Bundle, seed int64) error {
	if b == nil {
		return nil
	}
	fig, err := b.TileCacheSharing(seed, 8, 20)
	if err != nil {
		return fmt.Errorf("tilecache: %w", err)
	}
	fmt.Printf("\nShared tile cache (%s, %d clients x %d queries, %d hot spots, LOD p%.0f, mean DA/query):\n",
		fig.Name, fig.Clients, fig.PerClient, fig.Spots, 100*fig.EPct)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "uncached\tcached(cold)\tcached(steady)\tspeedup\tcold misses\tdeduped\thits\tevictions\ttiles\tMB")
	speedup := "inf"
	if fig.Speedup > 0 {
		speedup = fmt.Sprintf("%.1fx", fig.Speedup)
	}
	fmt.Fprintf(w, "%.1f\t%.1f\t%.1f\t%s\t%d\t%d\t%d\t%d\t%d\t%.2f\n",
		fig.UncachedDA, fig.CachedColdDA, fig.CachedSteadyDA, speedup,
		fig.ColdMisses, fig.DedupedMisses, fig.Hits, fig.Evictions,
		fig.Tiles, float64(fig.Bytes)/(1<<20))
	return w.Flush()
}

// printCluster prints the sharded-cluster scale-out table: QPS, tail
// latency, and DA per query by shard count, against the single-node
// tile-cache steady state the per-shard cost must stay within noise of.
func printCluster(fig *experiments.ClusterFigure) error {
	fmt.Printf("\nSharded tile cluster (%s, %d clients x %d queries, %d hot spots, LOD p%.0f, single-node steady %.1f DA/query):\n",
		fig.Name, fig.Clients, fig.PerClient, fig.Spots, 100*fig.EPct, fig.SingleNodeSteadyDA)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "shards\tqueries/sec\tspeedup\tp50 us\tp99 us\tDA/query\tshard DA/query\tredirects\thot keys\treplica warmups")
	for _, p := range fig.Points {
		fmt.Fprintf(w, "%d\t%.0f\t%.2fx\t%.0f\t%.0f\t%.1f\t%.1f\t%d\t%d\t%d\n",
			p.Shards, p.QPS, p.Speedup, p.P50Micros, p.P99Micros,
			p.DAPerQuery, p.MeanShardDAPerQuery, p.Redirects, p.HotKeys, p.Replicated)
	}
	return w.Flush()
}

// printStream prints the progressive-streaming wire-cost table: bytes
// to the first renderable frame vs bytes to the exact answer per
// flyover frame, the per-batch byte schedule, and the progressivity
// overhead against a single-shot transfer.
func printStream(fig *experiments.StreamFigure) error {
	fmt.Printf("\nProgressive streaming (%s, %d frames, overlap %.1f, LOD p%.0f, %d batches to E %.3g):\n",
		fig.Name, fig.Frames, fig.Overlap, 100*fig.EPct, fig.Batches, fig.SnappedE)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "first-frame B\texact B\tfirst/exact\tsingle-shot B\toverhead\tDA/stream")
	fmt.Fprintf(w, "%.0f\t%.0f\t%.1f%%\t%.0f\t%.2fx\t%.1f\n",
		fig.MeanBytesToFirstFrame, fig.MeanBytesToExact, 100*fig.FirstFrameFraction,
		fig.MeanBytesSingleShot, fig.ProgressiveOverhead, fig.MeanDAPerStream)
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Print("  batch bytes (coarse->fine):")
	for _, b := range fig.MeanBatchBytes {
		fmt.Printf(" %.0f", b)
	}
	fmt.Println()
	return nil
}

// printFaults runs the chaos measurement: the hot-spot workload off a
// checksummed store under injected read failures and bit flips, swept
// over fault rates with a retry-once policy. Panics or oracle mismatches
// are a hard failure — the whole point is that there are none.
func printFaults(b *experiments.Bundle, seed int64) error {
	if b == nil {
		return nil
	}
	rates := []float64{0, 0.002, 0.01, 0.05}
	fig, err := b.FaultTolerance(seed, rates, 8, 20)
	if err != nil {
		return fmt.Errorf("faults: %w", err)
	}
	fmt.Printf("\nFault tolerance (%s, %d clients x %d queries, %d hot spots, LOD p%.0f, checksummed store, retry once):\n",
		fig.Name, fig.Clients, fig.PerClient, fig.Spots, 100*fig.EPct)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "rate\tqueries\tok\tdegraded\tfailed\twrong\tpanics\tinjected\tflipped\tDA/ok\toverhead")
	base := 0.0
	if len(fig.Points) > 0 {
		base = fig.Points[0].MeanDA
	}
	var bad bool
	for _, p := range fig.Points {
		overhead := "-"
		if base > 0 && p.MeanDA > 0 {
			overhead = fmt.Sprintf("%.2fx", p.MeanDA/base)
		}
		fmt.Fprintf(w, "%.3f\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.1f\t%s\n",
			p.Rate, p.Queries, p.OK, p.Degraded, p.Failed, p.Wrong, p.Panics,
			p.InjectedReads, p.FlippedReads, p.MeanDA, overhead)
		if p.Wrong != 0 || p.Panics != 0 {
			bad = true
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if bad {
		return fmt.Errorf("faults: wrong answers or panics under injected faults (see table)")
	}
	return nil
}

// printDABreakdown runs the telemetry decomposition: the paper's query
// mix traced phase by phase, each query's per-phase disk accesses checked
// to sum exactly to its session total (an attribution gap is a hard
// failure, not a footnote), then aggregated per query kind.
func printDABreakdown(b *experiments.Bundle, cfg workload.Config, roiFrac float64) error {
	if b == nil {
		return nil
	}
	rows, err := b.DABreakdown(cfg, roiFrac, 24)
	if err != nil {
		return fmt.Errorf("dabreakdown: %w", err)
	}
	fmt.Printf("\nPer-phase DA breakdown (%s, ROI %.0f%%, exact attribution, DA [spans]):\n",
		b.Name, roiFrac*100)
	// Column per phase that shows up in any row, in phase enum order.
	var used [obs.NumPhases]bool
	for _, r := range rows {
		for _, ps := range r.Phases {
			used[ps.Phase] = true
		}
	}
	var phases []string
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		if used[p] {
			phases = append(phases, p.String())
		}
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "kind\tqueries\ttotal DA")
	for _, p := range phases {
		fmt.Fprintf(w, "\t%s", p)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d", r.Kind, r.Queries, r.TotalDA)
		cells := map[string]string{}
		var sum uint64
		for _, ps := range r.Phases {
			cells[ps.Name] = fmt.Sprintf("%d [%d]", ps.DA, ps.Spans)
			sum += ps.DA
		}
		for _, p := range phases {
			c, ok := cells[p]
			if !ok {
				c = "-"
			}
			fmt.Fprintf(w, "\t%s", c)
		}
		fmt.Fprintln(w)
		if sum != r.TotalDA {
			w.Flush()
			return fmt.Errorf("dabreakdown: %s phases sum to %d DA, total is %d", r.Kind, sum, r.TotalDA)
		}
	}
	return w.Flush()
}

// printLayoutSweep prints the layout table: footprint, realized density,
// and the workload's data-heap and total DA per layout, with the
// packed-vs-str headline underneath.
func printLayoutSweep(s *experiments.LayoutSweep, roiFrac float64) error {
	fmt.Printf("\nLayout sweep (%s, ROI %.0f%%, DA per workload):\n", s.Dataset, roiFrac*100)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "layout\trecords\tdata pages\toverflow pages\trec/page\tdata DA\ttotal DA\n")
	for i := range s.Sides {
		side := &s.Sides[i]
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.1f\t%d\t%d\n",
			side.Layout, side.NumRecords, side.DataPages, side.OverflowPages,
			side.RecordsPerPage(), side.DataDA(), side.TotalDA())
	}
	if err := w.Flush(); err != nil {
		return err
	}
	str, packed := s.Side("str"), s.Side("packed")
	if str != nil && packed != nil && str.DataDA() > 0 && str.RecordsPerPage() > 0 {
		fmt.Printf("  packed vs str: %.2fx records/page, data-heap DA %d -> %d (%.1f%% reduction)\n",
			packed.RecordsPerPage()/str.RecordsPerPage(),
			str.DataDA(), packed.DataDA(),
			100*(1-float64(packed.DataDA())/float64(str.DataDA())))
	}
	return nil
}

// printObsTrace prints the distributed-tracing decomposition: one row
// per workload leg (cold, steady, resumed streams, shard killed), DA
// and latency totals plus the per-phase exclusive-DA columns recovered
// from the spliced shard traces. Every query behind these numbers
// already passed the cross-hop invariant — an attribution gap fails the
// figure before it prints.
func printObsTrace(fig *experiments.ObsTraceFigure) error {
	fmt.Printf("\nDistributed trace decomposition (%s, %d shards, %d clients x %d queries, LOD p%.0f, exact cross-hop attribution):\n",
		fig.Name, fig.Shards, fig.Clients, fig.PerClient, 100*fig.EPct)
	var used [obs.NumPhases]bool
	for _, leg := range fig.Legs {
		for _, ps := range leg.Phases {
			used[ps.Phase] = true
		}
	}
	var phases []string
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		if used[p] {
			phases = append(phases, p.String())
		}
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "leg\tqueries\tDA\ttraced DA\tredirects\tp50 us\tp99 us")
	for _, p := range phases {
		fmt.Fprintf(w, "\t%s", p)
	}
	fmt.Fprintln(w)
	for _, leg := range fig.Legs {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%.0f\t%.0f",
			leg.Leg, leg.Queries, leg.DA, leg.TraceDA, leg.Redirected,
			leg.P50Micros, leg.P99Micros)
		cells := map[string]string{}
		for _, ps := range leg.Phases {
			cells[ps.Name] = fmt.Sprintf("%d [%d]", ps.DA, ps.Spans)
		}
		for _, p := range phases {
			c, ok := cells[p]
			if !ok {
				c = "-"
			}
			fmt.Fprintf(w, "\t%s", c)
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}

func printConn(b *experiments.Bundle) {
	if b == nil {
		return
	}
	st := b.Terrain.Sequence.Stats()
	fmt.Printf("\nConnection statistics (%s, %d points):\n", b.Name, b.Terrain.NumPoints())
	fmt.Printf("  median similar-LOD connection points: %d (paper: ~12)\n", st.MedianSimilarLOD)
	fmt.Printf("  avg similar-LOD connection points:    %.1f (max %d)\n", st.AvgSimilarLOD, st.MaxSimilarLOD)
	fmt.Printf("  avg total connection points:          %.1f (paper: 180 at 2M / 840 at 17M)\n", st.AvgTotal)
}
