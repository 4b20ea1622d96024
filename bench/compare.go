package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
)

// Verdicts of a comparison of one metric on one workload.
const (
	verdictOK         = "ok"
	verdictImproved   = "improved"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictMissing    = "missing" // a side lacks the metric, or the workload's file
)

// verdict judges a candidate value against a base value. The candidate
// may be worse by max(Bound x |base|, absFloor) before it has regressed,
// and must be better by as much to have improved. worse is the share of
// the base by which it is worse (negative: better; 1 for any move off a
// zero base). noise is the comparison's pairedNoise for this metric (zero
// for counts): when a change the size of the bound would sit inside the
// noise between the two runs, the metric is unresolved, not unchanged,
// whichever way it moved.
func verdict(d metricDef, base, cand, noise float64) (v string, worse float64) {
	delta := cand - base
	if d.Better == higher {
		delta = -delta
	}
	switch {
	case base != 0:
		worse = delta / math.Abs(base)
	case delta != 0:
		worse = math.Copysign(1, delta)
	}
	allowed := max(d.Bound*math.Abs(base), absFloor[d.Name])
	switch {
	case noise > d.Bound:
		return verdictUnresolved, worse
	case delta > allowed:
		return verdictRegressed, worse
	case delta < -allowed:
		return verdictImproved, worse
	}
	return verdictOK, worse
}

// repeatsExactly says whether a metric is a count the program makes that
// two runs of one commit on one seed must reproduce bit for bit. The
// comparison marks those rows identical or differs: an assertion about
// A/A pairs (bench_test.go makes it of the ledger), not a verdict, since
// between two commits such a count may well improve.
func repeatsExactly(workload, metric string) bool {
	switch metric {
	case "wire_bytes_per_op", "store_data_bytes_per_point":
		return true
	case "da_per_op":
		return workload == "cold_direct" || workload == "flyover_frame"
	}
	return false
}

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// comparable refuses two runs that did not do the same work on the same
// kind of host.
func comparable(a, b header) error {
	a.Note, b.Note = "", ""
	if !reflect.DeepEqual(a, b) {
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		return fmt.Errorf("runs are not comparable (host, Go version, op counts, client count or seed differ):\n  base      %s\n  candidate %s", aj, bj)
	}
	return nil
}

// row is one line of a comparison: one metric on one workload.
type row struct {
	workload, metric string
	base, cand       float64
	verdict          string
	// exact: the metric must repeat exactly between A/A runs; identical:
	// it did.
	exact, identical bool
}

// passed reports whether a comparison found nothing regressed or missing.
func passed(rows []row) bool {
	for _, r := range rows {
		if r.verdict == verdictRegressed || r.verdict == verdictMissing {
			return false
		}
	}
	return true
}

// compareDirs prints, for each of the twelve end-to-end metrics on every
// workload, the two values, the ratio with its base, the bound and a
// verdict, and returns the rows. It reads the untraced pass's files. A
// workload neither directory ran is skipped with a note; one that only a
// single side ran, like a metric only a single side has, is missing.
func compareDirs(baseDir, candDir string, w io.Writer) ([]row, error) {
	var rows []row
	for i := range workloads {
		name := workloads[i].name
		base, errB := readResult(filepath.Join(baseDir, name+".json"))
		cand, errC := readResult(filepath.Join(candDir, name+".json"))
		noB, noC := errors.Is(errB, fs.ErrNotExist), errors.Is(errC, fs.ErrNotExist)
		switch {
		case noB && noC:
			fmt.Fprintf(w, "%-18s in neither directory, skipped\n", name)
			continue
		case noB || noC:
			rows = append(rows, row{workload: name, metric: "*", verdict: verdictMissing})
			fmt.Fprintf(w, "%-18s %-27s run on one side only (base: %v, candidate: %v)  %s\n", name, "*", !noB, !noC, verdictMissing)
			continue
		case errB != nil:
			return nil, errB
		case errC != nil:
			return nil, errC
		}
		if err := comparable(base.Header, cand.Header); err != nil {
			return nil, err
		}
		for _, d := range compared {
			bm, okB := base.Metrics[d.Name]
			cm, okC := cand.Metrics[d.Name]
			if !okB || !okC {
				rows = append(rows, row{workload: name, metric: d.Name, verdict: verdictMissing})
				fmt.Fprintf(w, "%-18s %-27s on one side only (base: %v, candidate: %v)  %s\n", name, d.Name, okB, okC, verdictMissing)
				continue
			}
			r := row{workload: name, metric: d.Name, base: bm.Value, cand: cm.Value,
				exact: repeatsExactly(name, d.Name), identical: bm.Value == cm.Value}
			noise := pairedNoise(base.Rounds[d.Name], cand.Rounds[d.Name])
			var worse float64
			r.verdict, worse = verdict(d, r.base, r.cand, noise)
			rows = append(rows, r)
			bound := fmt.Sprintf("%.1f%%", 100*d.Bound)
			if f := absFloor[d.Name]; f > 0 {
				bound = fmt.Sprintf("max(%.1f%%, %g)", 100*d.Bound, f)
			}
			note := ""
			switch {
			case len(base.Rounds[d.Name]) > 0:
				note = fmt.Sprintf("  noise %.1f%%", 100*noise)
			case r.exact && r.identical:
				note = "  exact counter: identical"
			case r.exact:
				note = "  exact counter: differs"
			}
			fmt.Fprintf(w, "%-18s %-27s base %12.6g  cand %12.6g %-5s ratio %.4f of base  worse by %+.2f%%  bound %s%s  %s\n",
				name, d.Name, r.base, r.cand, d.Unit, ratioOr1(r.cand, r.base), 100*worse, bound, note, r.verdict)
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("no workload's result file in %s or %s", baseDir, candDir)
	}
	return rows, nil
}

func ratioOr1(c, b float64) float64 {
	if b == 0 {
		return 1
	}
	return c / b
}
