// Command bench is the repository's standing benchmark: five serving-shape
// workloads driven closed-loop against the real stack, twelve end-to-end
// metrics with regression bounds, and a per-layer ledger measured from
// outside by timing calls into each module's public functions. See
// README.md in this directory.
//
//	go run ./bench -workload hot_patch -seed 1            # one workload, end-to-end metrics
//	go run ./bench -workload hot_patch -seed 1 -trace 1   # the traced pass: per-layer metrics + spans
//	go run ./bench -all -seed 1                           # the five, each in a fresh state
//	go run ./bench -compare bench/ledger/seed/a bench/ledger/seed/b
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// terrainSize is the side of the benchmark's one terrain (highland,
// terrain seed 1): the op rates, guards and ledger are all sized for it.
const terrainSize = 257

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: hot_patch, cold_direct, churn_tile, flyover_frame, progressive_stream")
	all := fs.Bool("all", false, "run the five workloads in sequence, each in a fresh state")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same ops")
	seconds := fs.Int("seconds", runSeconds, "measured-leg budget the fixed op counts are sized for")
	trace := fs.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics and spans")
	out := fs.String("out", "bench/out", "directory for result files and scratch store files")
	compare := fs.Bool("compare", false, "compare two result directories given as arguments: base, then candidate")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two directories: base, then candidate")
			return 2
		}
		rows, err := compareDirs(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if !passed(rows) {
			return 1
		}
		return 0
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be >= 1, -trace 0 or 1, and no positional arguments")
		return 2
	}
	var names []string
	switch {
	case *all && *workload == "":
		for i := range workloads {
			names = append(names, workloads[i].name)
		}
	case !*all && *workload != "":
		names = []string{*workload}
	default:
		fmt.Fprintln(stderr, "bench: give exactly one of -workload and -all")
		return 2
	}
	code := 0
	for _, name := range names {
		w, err := workloadByName(name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		res, err := runWorkload(runConfig{
			workload: name, seed: *seed, size: terrainSize, traced: *trace == 1,
			plan: planFor(w, *seconds, *trace == 1), outDir: *out, log: stdout,
		})
		if err != nil {
			// No result line: the run did not measure anything it can stand behind.
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if err := res.write(*out); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		// The driver's line: last on standard output, one JSON object.
		line, _ := json.Marshal(res.line())
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			code = 1
		}
	}
	return code
}
