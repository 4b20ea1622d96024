// Command dmbench reproduces the paper's evaluation: it builds the two
// benchmark datasets, runs the workload behind every figure of Section 6,
// and prints the measured series (average cold-cache disk accesses).
//
// Usage:
//
//	dmbench [-fig all|<id>] [-size N] [-size2 N] [-seed S] [-locations L]
//	        [-cpuprofile F] [-memprofile F]
//
// The ids are the rows of experiments.Table, whose comments say what each
// figure measures: conn, 6a..6d and 8a..8f are the paper's; throughput,
// flyover, tilecache, faults, dabreakdown, layoutcmp, cluster, stream
// and obstrace measure this repository's extensions. Every figure runs
// on the str layout, the paper's fixed records; layoutcmp builds a
// packed store beside it. layoutcmp, cluster and obstrace also write
// their series to results/BENCH_*.json.
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

	"dmesh/internal/experiments"
	"dmesh/internal/workload"
)

// resultDir is where the BENCH_*.json figure outputs go.
const resultDir = "results"

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "dmbench:", err)
		os.Exit(1)
	}
}

// mainErr holds the flag parsing and profile lifecycle; keeping the
// deferred profile flushes out of main lets them run even when the
// selected figure fails.
func mainErr() (err error) {
	var ids []string
	for _, r := range experiments.Table() {
		ids = append(ids, r.ID)
	}
	var (
		fig       = flag.String("fig", "all", "figure to reproduce ("+strings.Join(ids, ", ")+", all)")
		size      = flag.Int("size", 257, "grid side of the highland dataset (the paper's 2M-point terrain)")
		size2     = flag.Int("size2", 513, "grid side of the crater dataset (the paper's 17M-point terrain)")
		seed      = flag.Int64("seed", 1, "generation seed")
		locations = flag.Int("locations", 20, "random ROI placements averaged per measurement")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	// A profile that fails to reach its file fails the run, unless the
	// figure failed first.
	if *cpuProf != "" {
		f, cerr := os.Create(*cpuProf)
		if cerr != nil {
			return cerr
		}
		if cerr := pprof.StartCPUProfile(f); cerr != nil {
			f.Close()
			return cerr
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}
	if *memProf != "" {
		defer func() {
			if merr := writeHeapProfile(*memProf); err == nil {
				err = merr
			}
		}()
	}
	env := &experiments.Env{
		Cfg:  workload.Config{Locations: *locations, Seed: *seed},
		Size: *size, Size2: *size2,
		Log: os.Stderr,
	}
	return run(env, strings.ToLower(*fig))
}

// writeHeapProfile writes the final live set's heap profile to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // materialize the final live set
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// run measures and prints every selected row, one after another: rows
// share env's bundles.
func run(env *experiments.Env, fig string) error {
	ran := false
	for _, r := range experiments.Table() {
		if fig != "all" && fig != r.ID {
			continue
		}
		ran = true
		res, err := r.Run(env)
		if err != nil {
			return err
		}
		if err := r.Print(os.Stdout, res); err != nil {
			return err
		}
		if r.JSON != "" {
			if err := writeJSON(env, r.JSON, res); err != nil {
				return err
			}
		}
	}
	if !ran {
		return fmt.Errorf("unknown figure %q", fig)
	}
	return nil
}

// writeJSON persists one figure's result as results/name, under the
// parameters it was measured with, for the EXPERIMENTS.md tables.
func writeJSON(env *experiments.Env, name string, datasets any) error {
	if err := os.MkdirAll(resultDir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Sizes     [2]int `json:"sizes"`
		Seed      int64  `json:"seed"`
		Locations int    `json:"locations"`
		Datasets  any    `json:"datasets"`
	}{
		Sizes: [2]int{env.Size, env.Size2}, Seed: env.Cfg.Seed,
		Locations: env.Cfg.Locations, Datasets: datasets,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(resultDir, name)
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", path)
	return nil
}
