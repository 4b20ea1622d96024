package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"dmesh"
	"dmesh/internal/obs"
	"dmesh/internal/simplify"
	"dmesh/internal/workload"
)

// Env is what every figure row runs against: the run's parameters plus
// the two dataset bundles, each built on first use and shared by every
// row after it. A bundle's stores count disk accesses in one counter per
// store, so rows sharing an Env must run one at a time.
type Env struct {
	Cfg         workload.Config // locations and seed of every row
	Size, Size2 int             // grid sides of highland and crater
	// Log, when set, receives a line before each bundle build.
	Log io.Writer

	bundles map[string]*Bundle
}

// Bundle builds (once) and returns the named dataset bundle.
func (e *Env) Bundle(name string) (*Bundle, error) {
	if b, ok := e.bundles[name]; ok {
		return b, nil
	}
	size := e.Size
	if name == "crater" {
		size = e.Size2
	}
	if e.Log != nil {
		fmt.Fprintf(e.Log, "building %s dataset (%dx%d points, str layout)...\n", name, size, size)
	}
	b, err := BuildBundle(name, size, e.Cfg.Seed)
	if err != nil {
		return nil, err
	}
	if e.bundles == nil {
		e.bundles = make(map[string]*Bundle)
	}
	e.bundles[name] = b
	return b, nil
}

// Row is one figure: dmbench -fig ID runs and prints it, and
// TestFigureTablePinned hashes what Run returns. Every result is a slice
// with one element per dataset the figure covers, highland first.
type Row struct {
	ID    string
	Run   func(*Env) (any, error)
	Print func(io.Writer, any) error
	// JSON names the results/ file dmbench writes the result to; only the
	// figures a document cites have one.
	JSON string
	// Pin is the row's pinned hash (figureHashes) on a row with a JSON
	// file: dmbench stamps it into the file, so a file written before the
	// row was last re-pinned is told apart from one written after.
	Pin string
	// Unpinned lists result keys, beyond the timing keys, that the pin
	// test leaves out; the row says why.
	Unpinned []string
}

// row builds a Row that runs measure on each named dataset in turn and
// prints each dataset's result with show.
func row[T any](id string, datasets []string, measure func(*Env, *Bundle) (T, error), show func(io.Writer, T) error) Row {
	return Row{
		ID: id,
		Run: func(e *Env) (any, error) {
			var out []T
			for _, name := range datasets {
				b, err := e.Bundle(name)
				if err != nil {
					return nil, err
				}
				res, err := measure(e, b)
				if err != nil {
					return nil, fmt.Errorf("figure %s: %w", id, err)
				}
				out = append(out, res)
			}
			return out, nil
		},
		Print: func(w io.Writer, res any) error {
			for _, r := range res.([]T) {
				if err := show(w, r); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

func (r Row) writes(file string) Row { r.JSON, r.Pin = file, figureHashes[r.ID]; return r }

func (r Row) unpinned(keys ...string) Row { r.Unpinned = keys; return r }

// paper builds the row of one of the paper's Figs 6 and 8.
func paper(id, dataset string, measure func(*Bundle, workload.Config) (*Figure, error)) Row {
	return row(id, []string{dataset}, func(e *Env, b *Bundle) (*Figure, error) {
		return measure(b, e.Cfg)
	}, func(w io.Writer, f *Figure) error { return printFigure(w, id, f) })
}

var (
	bothDatasets = []string{"highland", "crater"}
	highlandOnly = []string{"highland"}
	// breakdownROI is the ROI fraction dabreakdown and layoutcmp query
	// each dataset at: Fig 8(b)'s and Fig 8(e)'s.
	breakdownROI = map[string]float64{"highland": 0.10, "crater": 0.05}
)

// Table is every figure dmbench reproduces, in -fig all order.
func Table() []Row {
	roiFracsH := []float64{0.02, 0.04, 0.06, 0.08, 0.10, 0.12}
	roiFracsC := []float64{0.01, 0.02, 0.03, 0.04, 0.05}
	lodPcts := []float64{0.70, 0.80, 0.90, 0.95, 0.99}
	angleFracs := []float64{0.1, 0.3, 0.5, 0.7, 0.9}

	return []Row{
		// Section 4's in-text numbers: similar-LOD connection-list length
		// against all possible connection points.
		row("conn", bothDatasets, func(_ *Env, b *Bundle) (connFigure, error) {
			return connFigure{Name: b.Name, Points: b.Terrain.NumPoints(), ConnStats: b.Terrain.Sequence.Stats()}, nil
		}, printConn),

		// The temporal-coherence extension: mean DA per frame along a
		// camera path, full re-query against the incremental engine, swept
		// over frame-to-frame overlap on a memory-constrained store.
		// FlyoverFigure.Pools carries no JSON (its backend hook has none);
		// its sizes are flyoverPools(), a constant.
		row("flyover", bothDatasets, func(e *Env, b *Bundle) (*FlyoverFigure, error) {
			return b.Flyover(e.Cfg, []float64{0.5, 0.7, 0.8, 0.9, 0.95}, 40)
		}, printFlyover),

		paper("6a", "highland", func(b *Bundle, cfg workload.Config) (*Figure, error) {
			return b.Fig6ROI(cfg, roiFracsH)
		}),
		paper("6b", "highland", func(b *Bundle, cfg workload.Config) (*Figure, error) {
			return b.Fig6LOD(cfg, 0.10, lodPcts)
		}),
		paper("6c", "crater", func(b *Bundle, cfg workload.Config) (*Figure, error) {
			return b.Fig6ROI(cfg, roiFracsC)
		}),
		paper("6d", "crater", func(b *Bundle, cfg workload.Config) (*Figure, error) {
			return b.Fig6LOD(cfg, 0.05, lodPcts)
		}),
		paper("8a", "highland", func(b *Bundle, cfg workload.Config) (*Figure, error) {
			return b.Fig8ROI(cfg, roiFracsH)
		}),
		paper("8b", "highland", func(b *Bundle, cfg workload.Config) (*Figure, error) {
			return b.Fig8LOD(cfg, 0.10, lodPcts)
		}),
		paper("8c", "highland", func(b *Bundle, cfg workload.Config) (*Figure, error) {
			return b.Fig8Angle(cfg, 0.10, angleFracs)
		}),
		paper("8d", "crater", func(b *Bundle, cfg workload.Config) (*Figure, error) {
			return b.Fig8ROI(cfg, roiFracsC)
		}),
		paper("8e", "crater", func(b *Bundle, cfg workload.Config) (*Figure, error) {
			return b.Fig8LOD(cfg, 0.05, lodPcts)
		}),
		paper("8f", "crater", func(b *Bundle, cfg workload.Config) (*Figure, error) {
			return b.Fig8Angle(cfg, 0.05, angleFracs)
		}),

		// DESIGN.md §5's decisions against their alternatives: multi-base
		// planning, cold buffers, buffer-pool size and visibility culling.
		row("ablation", highlandOnly, func(e *Env, b *Bundle) (*AblationFigure, error) {
			return b.Ablation(e.Cfg)
		}, printAblation),

		// The shared mesh-tile cache: mean DA per query on a skewed
		// multi-client workload, direct engine against cache-served. The
		// cold epoch's clients race, so how Lookups − ColdMisses splits
		// into Hits (arrived after the materialization) and DedupedMisses
		// (arrived during it) depends on the interleaving; Lookups pins
		// their sum.
		row("tilecache", bothDatasets, func(e *Env, b *Bundle) (*TileCacheFigure, error) {
			return b.TileCacheSharing(e.Cfg.Seed, 8, 20)
		}, printTileCache).unpinned("Hits", "DedupedMisses"),

		// The chaos run: the hot-spot workload off a checksummed store
		// whose simulated disk fails reads and flips bits at a sweep of
		// rates. FaultTolerance fails on any panic or wrong answer.
		row("faults", bothDatasets, func(e *Env, b *Bundle) (*FaultsFigure, error) {
			return b.FaultTolerance(e.Cfg.Seed, []float64{0, 0.002, 0.01, 0.05}, 8, 20)
		}, printFaults),

		// The paper's query mix traced phase by phase; every query's
		// phases are checked to sum exactly to its session total.
		row("dabreakdown", bothDatasets, func(e *Env, b *Bundle) (breakdown, error) {
			rows, err := b.DABreakdown(e.Cfg, breakdownROI[b.Name], 24)
			return breakdown{Name: b.Name, ROIFrac: breakdownROI[b.Name], Rows: rows}, err
		}, printDABreakdown),

		// The dabreakdown mix under both layouts — str's fixed records and
		// packed's compressed ones — on the same terrain.
		row("layoutcmp", bothDatasets, func(e *Env, b *Bundle) (*LayoutSweep, error) {
			return b.SweepLayouts(e.Cfg, breakdownROI[b.Name], 24, []dmesh.Layout{dmesh.LayoutSTR, dmesh.LayoutPacked})
		}, printLayoutSweep).writes("BENCH_compression.json"),

		// Scale-out: the hot-spot workload answered by an in-process
		// sharded cluster over real HTTP, swept over shard counts, every
		// answer checked against a single node.
		row("cluster", highlandOnly, func(e *Env, b *Bundle) (*ClusterFigure, error) {
			return b.ClusterScaleOut(e.Cfg.Seed, 8, 20, []int{1, 2, 4, 8})
		}, printCluster).writes("BENCH_cluster.json"),

		// Progressive streaming: bytes to the first renderable frame
		// against bytes to the exact answer along a flyover, every stream
		// decoded back and checked against the direct query.
		row("stream", bothDatasets, func(e *Env, b *Bundle) (*StreamFigure, error) {
			return b.Streaming(e.Cfg.Seed, 24, 0.6, 0.95)
		}, printStream),

		// Distributed tracing: the cluster query mix traced over the wire
		// and decomposed per hop and phase, the cross-hop invariant checked
		// on every query, a shard killed in the last leg.
		row("obstrace", bothDatasets, func(e *Env, b *Bundle) (*ObsTraceFigure, error) {
			return b.ObsTrace(e.Cfg.Seed, 8, 10, 4)
		}, printObsTrace).writes("BENCH_obstrace.json"),
	}
}

// connFigure is the -fig conn result for one dataset.
type connFigure struct {
	Name   string
	Points int
	simplify.ConnStats
}

// breakdown is the -fig dabreakdown result for one dataset.
type breakdown struct {
	Name    string
	ROIFrac float64
	Rows    []DABreakdownRow
}

func printConn(w io.Writer, c connFigure) error {
	fmt.Fprintf(w, "\nConnection statistics (%s, %d points):\n", c.Name, c.Points)
	fmt.Fprintf(w, "  median similar-LOD connection points: %d (paper: ~12)\n", c.MedianSimilarLOD)
	fmt.Fprintf(w, "  avg similar-LOD connection points:    %.1f (max %d)\n", c.AvgSimilarLOD, c.MaxSimilarLOD)
	fmt.Fprintf(w, "  avg total connection points:          %.1f (paper: 180 at 2M / 840 at 17M)\n", c.AvgTotal)
	return nil
}

func printFigure(w io.Writer, id string, f *Figure) error {
	fmt.Fprintf(w, "\nFigure %s: %s\n", id, f.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(tw, "\t%s", s.Method)
	}
	fmt.Fprintln(tw)
	if len(f.Series) > 0 {
		for i := range f.Series[0].Points {
			fmt.Fprintf(tw, "%.1f", f.Series[0].Points[i].X)
			for _, s := range f.Series {
				fmt.Fprintf(tw, "\t%.0f", s.Points[i].DA)
			}
			fmt.Fprintln(tw)
		}
	}
	return tw.Flush()
}

func printFlyover(w io.Writer, fig *FlyoverFigure) error {
	fmt.Fprintf(w, "\nFlyover coherence (%s, %d frames/path, pools %d/%d/%d/%d pages, mean DA/frame, frame 0 excluded):\n",
		fig.Name, fig.Frames, fig.Pools.Data, fig.Pools.Overflow, fig.Pools.Index, fig.Pools.IDIndex)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "overlap\trealized\tFullCold\tFullWarm\tIncSB\tIncMB\tWarm/IncSB\tfallbacks")
	for _, p := range fig.Points {
		ratio := 0.0
		if p.IncSBDA > 0 {
			ratio = p.FullWarmDA / p.IncSBDA
		}
		fmt.Fprintf(tw, "%.2f\t%.2f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1fx\t%d/%d\n",
			p.Overlap, p.Realized, p.FullColdDA, p.FullWarmDA, p.IncSBDA, p.IncMBDA, ratio,
			p.IncSBFull, p.IncMBFull)
	}
	return tw.Flush()
}

func printTileCache(w io.Writer, fig *TileCacheFigure) error {
	fmt.Fprintf(w, "\nShared tile cache (%s, %d clients x %d queries, %d hot spots, LOD p%.0f, mean DA/query):\n",
		fig.Name, fig.Clients, fig.PerClient, fig.Spots, 100*fig.EPct)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "uncached\tcached(cold)\tcached(steady)\tspeedup\tcold misses\tdeduped\thits\tevictions\ttiles\tMB")
	speedup := "inf"
	if fig.Speedup > 0 {
		speedup = fmt.Sprintf("%.1fx", fig.Speedup)
	}
	fmt.Fprintf(tw, "%.1f\t%.1f\t%.1f\t%s\t%d\t%d\t%d\t%d\t%d\t%.2f\n",
		fig.UncachedDA, fig.CachedColdDA, fig.CachedSteadyDA, speedup,
		fig.ColdMisses, fig.DedupedMisses, fig.Hits, fig.Evictions,
		fig.Tiles, float64(fig.Bytes)/(1<<20))
	return tw.Flush()
}

func printFaults(w io.Writer, fig *FaultsFigure) error {
	fmt.Fprintf(w, "\nFault tolerance (%s, %d clients x %d queries, %d hot spots, LOD p%.0f, checksummed store, retry once):\n",
		fig.Name, fig.Clients, fig.PerClient, fig.Spots, 100*fig.EPct)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "rate\tqueries\tok\tdegraded\tfailed\twrong\tpanics\tinjected\tflipped\tDA/ok\toverhead")
	base := 0.0
	if len(fig.Points) > 0 {
		base = fig.Points[0].MeanDA
	}
	for _, p := range fig.Points {
		overhead := "-"
		if base > 0 && p.MeanDA > 0 {
			overhead = fmt.Sprintf("%.2fx", p.MeanDA/base)
		}
		fmt.Fprintf(tw, "%.3f\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.1f\t%s\n",
			p.Rate, p.Queries, p.OK, p.Degraded, p.Failed, p.Wrong, p.Panics,
			p.InjectedReads, p.FlippedReads, p.MeanDA, overhead)
	}
	return tw.Flush()
}

// phaseColumns names, in phase order, every phase that appears in any
// of the given phase lists: the columns of a per-phase table.
func phaseColumns(lists ...[]obs.PhaseStat) []string {
	var used [obs.NumPhases]bool
	for _, l := range lists {
		for _, ps := range l {
			used[ps.Phase] = true
		}
	}
	var phases []string
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		if used[p] {
			phases = append(phases, p.String())
		}
	}
	return phases
}

// printPhaseCells writes one "DA [spans]" cell per column, "-" where the
// row has no span of that phase.
func printPhaseCells(tw io.Writer, columns []string, stats []obs.PhaseStat) {
	cells := map[string]string{}
	for _, ps := range stats {
		cells[ps.Name] = fmt.Sprintf("%d [%d]", ps.DA, ps.Spans)
	}
	for _, p := range columns {
		c, ok := cells[p]
		if !ok {
			c = "-"
		}
		fmt.Fprintf(tw, "\t%s", c)
	}
	fmt.Fprintln(tw)
}

func printDABreakdown(w io.Writer, f breakdown) error {
	fmt.Fprintf(w, "\nPer-phase DA breakdown (%s, ROI %.0f%%, exact attribution, DA [spans]):\n",
		f.Name, f.ROIFrac*100)
	var lists [][]obs.PhaseStat
	for _, r := range f.Rows {
		lists = append(lists, r.Phases)
	}
	phases := phaseColumns(lists...)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "kind\tqueries\ttotal DA")
	for _, p := range phases {
		fmt.Fprintf(tw, "\t%s", p)
	}
	fmt.Fprintln(tw)
	for _, r := range f.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%d", r.Kind, r.Queries, r.TotalDA)
		printPhaseCells(tw, phases, r.Phases)
	}
	return tw.Flush()
}

func printLayoutSweep(w io.Writer, s *LayoutSweep) error {
	fmt.Fprintf(w, "\nLayout sweep (%s, ROI %.0f%%, DA per workload):\n", s.Dataset, breakdownROI[s.Dataset]*100)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "layout\trecords\tdata pages\toverflow pages\trec/page\tdata DA\ttotal DA\n")
	for i := range s.Sides {
		side := &s.Sides[i]
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.1f\t%d\t%d\n",
			side.Layout, side.NumRecords, side.DataPages, side.OverflowPages,
			side.RecordsPerPage(), side.DataDA(), side.TotalDA())
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	str, packed := s.Side("str"), s.Side("packed")
	if str != nil && packed != nil && str.DataDA() > 0 && str.RecordsPerPage() > 0 {
		fmt.Fprintf(w, "  packed vs str: %.2fx records/page, data-heap DA %d -> %d (%.1f%% reduction)\n",
			packed.RecordsPerPage()/str.RecordsPerPage(),
			str.DataDA(), packed.DataDA(),
			100*(1-float64(packed.DataDA())/float64(str.DataDA())))
	}
	return nil
}

func printCluster(w io.Writer, fig *ClusterFigure) error {
	fmt.Fprintf(w, "\nSharded tile cluster (%s, %d clients x %d queries, %d hot spots, LOD p%.0f, single-node steady %.1f DA/query):\n",
		fig.Name, fig.Clients, fig.PerClient, fig.Spots, 100*fig.EPct, fig.SingleNodeSteadyDA)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "shards\tqueries/sec\tspeedup\tp50 us\tp99 us\tDA/query\tshard DA/query\tredirects\thot keys\treplica warmups")
	for _, p := range fig.Points {
		fmt.Fprintf(tw, "%d\t%.0f\t%.2fx\t%.0f\t%.0f\t%.1f\t%.1f\t%d\t%d\t%d\n",
			p.Shards, p.QPS, p.Speedup, p.P50Micros, p.P99Micros,
			p.DAPerQuery, p.MeanShardDAPerQuery, p.Redirects, p.HotKeys, p.Replicated)
	}
	return tw.Flush()
}

func printStream(w io.Writer, fig *StreamFigure) error {
	fmt.Fprintf(w, "\nProgressive streaming (%s, %d frames, overlap %.1f, LOD p%.0f, %d batches to E %.3g):\n",
		fig.Name, fig.Frames, fig.Overlap, 100*fig.EPct, fig.Batches, fig.SnappedE)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "first-frame B\texact B\tfirst/exact\tsingle-shot B\toverhead\tDA/stream")
	fmt.Fprintf(tw, "%.0f\t%.0f\t%.1f%%\t%.0f\t%.2fx\t%.1f\n",
		fig.MeanBytesToFirstFrame, fig.MeanBytesToExact, 100*fig.FirstFrameFraction,
		fig.MeanBytesSingleShot, fig.ProgressiveOverhead, fig.MeanDAPerStream)
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprint(w, "  batch bytes (coarse->fine):")
	for _, b := range fig.MeanBatchBytes {
		fmt.Fprintf(w, " %.0f", b)
	}
	fmt.Fprintln(w)
	return nil
}

func printObsTrace(w io.Writer, fig *ObsTraceFigure) error {
	fmt.Fprintf(w, "\nDistributed trace decomposition (%s, %d shards, %d clients x %d queries, LOD p%.0f, exact cross-hop attribution):\n",
		fig.Name, fig.Shards, fig.Clients, fig.PerClient, 100*fig.EPct)
	var lists [][]obs.PhaseStat
	for _, leg := range fig.Legs {
		lists = append(lists, leg.Phases)
	}
	phases := phaseColumns(lists...)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "leg\tqueries\tDA\ttraced DA\tredirects\tp50 us\tp99 us")
	for _, p := range phases {
		fmt.Fprintf(tw, "\t%s", p)
	}
	fmt.Fprintln(tw)
	for _, leg := range fig.Legs {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%.0f\t%.0f",
			leg.Leg, leg.Queries, leg.DA, leg.TraceDA, leg.Redirected,
			leg.P50Micros, leg.P99Micros)
		printPhaseCells(tw, phases, leg.Phases)
	}
	return tw.Flush()
}
