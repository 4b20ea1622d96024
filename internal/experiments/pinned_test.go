package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dmesh/internal/workload"
)

// timingKeys mark the result leaves that measure the machine, not the
// code: a key containing any of them (ignoring case) is left out of the
// hash.
var timingKeys = []string{"micros", "nanos", "qps", "speedup", "seconds"}

// pinnedJSON is the pinned form of a row's result: its JSON, numbers
// kept exactly as marshalled, with every timing key and every key of
// unpinned dropped at any depth. encoding/json writes map keys sorted,
// so the bytes are canonical.
func pinnedJSON(t *testing.T, res any, unpinned []string) []byte {
	t.Helper()
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var doc any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var drop func(v any)
	drop = func(v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, e := range x {
				lk := strings.ToLower(k)
				if slices.Contains(unpinned, k) || slices.ContainsFunc(timingKeys, func(tk string) bool {
					return strings.Contains(lk, tk)
				}) {
					delete(x, k)
					continue
				}
				drop(e)
			}
		case []any:
			for _, e := range x {
				drop(e)
			}
		}
	}
	drop(doc)
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFigureTablePinned runs every row dmbench -fig accepts and compares
// the hash of its exact columns — disk accesses, records, pages, bytes,
// cache hit, miss and eviction counts, wrong-answer and panic counts —
// with figureHashes. It fails on a row without a hash and on a hash that
// names no row. Rows share one Env and run in table order, one at a time.
func TestFigureTablePinned(t *testing.T) {
	// throughput's worker list and pool shard count follow GOMAXPROCS;
	// fixing it keeps the hash independent of the host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rows := Table()
	for id := range figureHashes {
		if !slices.ContainsFunc(rows, func(r Row) bool { return r.ID == id }) {
			t.Errorf("pinned hash for %q names no row of the figure table", id)
		}
	}
	env := &Env{Cfg: workload.Config{Locations: 20, Seed: 1}, Size: 65, Size2: 65}
	for _, r := range rows {
		t.Run(r.ID, func(t *testing.T) {
			res, err := r.Run(env)
			if err != nil {
				t.Fatalf("figure %s: %v", r.ID, err)
			}
			if err := r.Print(io.Discard, res); err != nil {
				t.Fatalf("figure %s: print: %v", r.ID, err)
			}
			pinned := pinnedJSON(t, res, r.Unpinned)
			sum := sha256.Sum256(pinned)
			got := hex.EncodeToString(sum[:])
			want, ok := figureHashes[r.ID]
			if !ok {
				t.Fatalf("figure %s has no pinned hash (sha256 %s)", r.ID, got)
			}
			if got != want {
				t.Errorf("figure %s moved: sha256 %s, pinned %s\n%s", r.ID, got, want, pinned)
			}
		})
	}
}

// TestResultsCarryLivePins holds the checked-in results/ files to the code:
// each row that writes one (Row.JSON) must find it stamped with the row's
// live pinned hash. A row re-pinned without regenerating its file — or
// deleting it — fails here, in milliseconds: no figure runs.
func TestResultsCarryLivePins(t *testing.T) {
	for _, r := range Table() {
		if r.JSON == "" {
			continue
		}
		raw, err := os.ReadFile(filepath.Join("..", "..", "results", r.JSON))
		if err != nil {
			t.Errorf("figure %s: %v", r.ID, err)
			continue
		}
		var doc struct {
			Pin string `json:"pin"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Errorf("figure %s: results/%s: %v", r.ID, r.JSON, err)
			continue
		}
		if want := figureHashes[r.ID]; doc.Pin != want {
			t.Errorf("figure %s: results/%s is stamped %q, the row is pinned %q: regenerate it with dmbench -fig %s",
				r.ID, r.JSON, doc.Pin, want, r.ID)
		}
	}
}
