package cluster_test

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"dmesh/internal/obs"
)

// checkTracedQuery runs the cross-hop hard invariant for one traced
// cluster query: the root trace balances against the independently
// summed shard headers (CheckTotal), and the shards' spliced spans
// account for every header access (TraceDA == DA).
func checkTracedQuery(t *testing.T, tr *obs.Trace, da, traceDA uint64) {
	t.Helper()
	if err := tr.CheckTotal(da); err != nil {
		t.Fatalf("cross-hop invariant: %v", err)
	}
	if traceDA != da {
		t.Fatalf("shard traces account for %d of %d header disk accesses", traceDA, da)
	}
}

// TestTracedQueryInvariant fans traced queries over a live cluster and
// holds the wire-trace plane to its contract: every query passes the
// three-way cross-hop invariant, the spliced span tree carries one
// shard_hop per fetch attempt that won, remote phases survive the
// splice, and tracing changes no answer-visible accounting (same DA as
// the untraced path).
func TestTracedQueryInvariant(t *testing.T) {
	tr := terrain(t, "highland")
	lc := startLocal(t, tr, 3)
	e := tr.LODPercentile(0.9)
	rng := rand.New(rand.NewSource(11))
	rects := randRects(rng, 12)

	trace := obs.NewTrace(nil)
	for _, r := range rects {
		trace.Reset()
		res, st, err := lc.Router.QueryTraced(r, e, trace)
		if err != nil {
			t.Fatal(err)
		}
		if res == nil {
			t.Fatal("nil result")
		}
		checkTracedQuery(t, trace, st.DA, st.TraceDA)

		spans := trace.Spans()
		var hops int
		for _, sp := range spans {
			if sp.Phase == obs.PhaseShardHop {
				hops++
				if self := sp.SelfDA(); self != 0 {
					t.Errorf("hop claims %d DA itself; the shard's trace must account for all of it", self)
				}
			}
		}
		if hops != st.Tiles {
			t.Errorf("%d shard_hop spans for %d tiles", hops, st.Tiles)
		}
		// Untraced control: identical header accounting, no trace cost.
		_, st2, err := lc.Router.Query(r, e)
		if err != nil {
			t.Fatal(err)
		}
		if st2.DA != 0 {
			t.Errorf("untraced warm repeat cost %d DA, want 0 (tile cache resident)", st2.DA)
		}
		if st2.TraceDA != 0 {
			t.Errorf("untraced query reported TraceDA %d", st2.TraceDA)
		}
	}
}

// TestTracedInvariantWithShardKilled is the acceptance clause: the
// cross-hop invariant must hold on every traced query even while the
// router is failing over around a dead shard — the hop header and wire
// trace both come from the shard that actually answered.
func TestTracedInvariantWithShardKilled(t *testing.T) {
	tr := terrain(t, "highland")
	lc := startLocal(t, tr, 3)
	e := tr.LODPercentile(0.9)
	rng := rand.New(rand.NewSource(13))
	rects := randRects(rng, 16)

	lc.KillShard(1)

	trace := obs.NewTrace(nil)
	redirected := 0
	for _, r := range rects {
		trace.Reset()
		_, st, err := lc.Router.QueryTraced(r, e, trace)
		if err != nil {
			t.Fatal(err)
		}
		checkTracedQuery(t, trace, st.DA, st.TraceDA)
		redirected += st.Redirected
		if st.Attempts != st.Tiles+st.Redirected {
			t.Errorf("attempts %d != tiles %d + redirected %d", st.Attempts, st.Tiles, st.Redirected)
		}
	}
	if redirected == 0 {
		t.Error("no redirects with a shard down; the test exercised nothing")
	}
}

// TestClusterMetricsMerged scrapes /clustermetrics and checks the merge
// contract: the page parses, per-shard counters sum across the cluster,
// the synthetic scrape gauges report the outage truthfully, and two
// scrapes with no traffic in between are byte-identical (deterministic
// merge). Killing a shard must degrade the scrape count, not the page.
func TestClusterMetricsMerged(t *testing.T) {
	tr := terrain(t, "highland")
	lc := startLocal(t, tr, 3)
	e := tr.LODPercentile(0.9)
	rng := rand.New(rand.NewSource(17))
	for _, r := range randRects(rng, 6) {
		if _, _, err := lc.Router.Query(r, e); err != nil {
			t.Fatal(err)
		}
	}
	rts := httptest.NewServer(lc.Router.Handler())
	defer rts.Close()

	fetch := func() (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(rts.URL + "/clustermetrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	resp, body := fetch()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/clustermetrics: status %d: %s", resp.StatusCode, body)
	}
	snap, err := obs.ParsePrometheus(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("/clustermetrics does not parse: %v", err)
	}
	if m := snap.Metrics["cluster_shards_total"]; m == nil || m.Value != 3 {
		t.Errorf("cluster_shards_total = %+v, want 3", m)
	}
	if m := snap.Metrics["cluster_shards_scraped"]; m == nil || m.Value != 3 {
		t.Errorf("cluster_shards_scraped = %+v, want 3", m)
	}
	// The shards' patch counters must merge into a cluster-wide sum
	// covering every tile fetch the queries fanned out.
	var shardSum uint64
	for _, s := range lc.Servers {
		shardSum += s.Registry().Counter("tileserver_patch_requests_total", "").Value()
	}
	if m := snap.Metrics["tileserver_patch_requests_total"]; m == nil || uint64(m.Value) != shardSum {
		t.Errorf("merged tileserver_patch_requests_total = %+v, shards hold %d", m, shardSum)
	}
	// So must the caches' seam census, which has no merge code of its own:
	// the shards' stores were built for the ladder they serve, so most
	// out-pairs were dropped at materialization.
	var kept, dropped uint64
	for _, s := range lc.Servers {
		st := s.Cache().Stats()
		kept, dropped = kept+st.OutPairsKept, dropped+st.OutPairsDropped
	}
	if m := snap.Metrics["tileserver_cache_outpairs_kept"]; m == nil || uint64(m.Value) != kept || kept == 0 {
		t.Errorf("merged tileserver_cache_outpairs_kept = %+v, shards hold %d", m, kept)
	}
	if m := snap.Metrics["tileserver_cache_outpairs_dropped"]; m == nil || uint64(m.Value) != dropped || dropped <= kept {
		t.Errorf("merged tileserver_cache_outpairs_dropped = %+v, shards hold %d (and kept %d)", m, dropped, kept)
	}
	// Determinism: no traffic between scrapes, identical pages.
	_, body2 := fetch()
	if !bytes.Equal(body, body2) {
		t.Error("two idle /clustermetrics scrapes differ")
	}

	lc.KillShard(2)
	resp3, body3 := fetch()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("/clustermetrics with a shard down: status %d", resp3.StatusCode)
	}
	snap3, err := obs.ParsePrometheus(bytes.NewReader(body3))
	if err != nil {
		t.Fatal(err)
	}
	if m := snap3.Metrics["cluster_shards_scraped"]; m == nil || m.Value != 2 {
		t.Errorf("cluster_shards_scraped with a shard down = %+v, want 2", m)
	}
}

// TestClusterHealth: /clusterhealth is 200 "ready" with every shard up
// and 503 "degraded" naming the dead shard after a kill.
func TestClusterHealth(t *testing.T) {
	tr := terrain(t, "highland")
	lc := startLocal(t, tr, 3)
	rts := httptest.NewServer(lc.Router.Handler())
	defer rts.Close()

	fetch := func(wantStatus int) (ch struct {
		Status string `json:"status"`
		Ready  int    `json:"ready_shards"`
		Total  int    `json:"total_shards"`
		Shards []struct {
			ID      string `json:"id"`
			Healthy bool   `json:"healthy"`
			Ready   bool   `json:"ready"`
		} `json:"shards"`
	}) {
		t.Helper()
		resp, err := http.Get(rts.URL + "/clusterhealth")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != wantStatus {
			t.Fatalf("/clusterhealth: status %d, want %d: %s", resp.StatusCode, wantStatus, body)
		}
		if err := json.Unmarshal(body, &ch); err != nil {
			t.Fatalf("/clusterhealth: %v\n%s", err, body)
		}
		return ch
	}

	ch := fetch(http.StatusOK)
	if ch.Status != "ready" || ch.Ready != 3 || ch.Total != 3 {
		t.Errorf("healthy cluster reported %+v", ch)
	}

	lc.KillShard(0)
	ch = fetch(http.StatusServiceUnavailable)
	if ch.Status != "degraded" || ch.Ready != 2 {
		t.Errorf("degraded cluster reported %+v", ch)
	}
	for _, sh := range ch.Shards {
		if sh.ID == "shard-0" && (sh.Healthy || sh.Ready) {
			t.Errorf("killed shard probed as healthy=%v ready=%v", sh.Healthy, sh.Ready)
		}
		if sh.ID != "shard-0" && !sh.Ready {
			t.Errorf("live shard %s probed not ready", sh.ID)
		}
	}
}

// TestClusterSlowLogCarriesTraces: the merged /clusterslowlog must tag
// every entry with its shard, order slowest-first, and keep each
// entry's wire trace decodable — the cluster-wide drill-down the slow
// log exists for.
func TestClusterSlowLogCarriesTraces(t *testing.T) {
	tr := terrain(t, "highland")
	lc := startLocal(t, tr, 3)
	e := tr.LODPercentile(0.9)
	rng := rand.New(rand.NewSource(19))
	trace := obs.NewTrace(nil)
	for _, r := range randRects(rng, 8) {
		trace.Reset()
		if _, _, err := lc.Router.QueryTraced(r, e, trace); err != nil {
			t.Fatal(err)
		}
	}
	rts := httptest.NewServer(lc.Router.Handler())
	defer rts.Close()

	resp, err := http.Get(rts.URL + "/clusterslowlog?n=50")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/clusterslowlog: status %d: %s", resp.StatusCode, body)
	}
	var page struct {
		ScrapedShards int `json:"scraped_shards"`
		TotalShards   int `json:"total_shards"`
		Entries       []struct {
			Shard     string `json:"shard"`
			DA        uint64 `json:"disk_accesses"`
			Nanos     int64  `json:"nanos"`
			TraceWire string `json:"trace_wire"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatalf("/clusterslowlog: %v\n%s", err, body)
	}
	if page.ScrapedShards != 3 || page.TotalShards != 3 {
		t.Errorf("scraped %d/%d shards", page.ScrapedShards, page.TotalShards)
	}
	if len(page.Entries) == 0 {
		t.Fatal("no slow-log entries after traced traffic (threshold 0 admits all)")
	}
	shards := map[string]bool{}
	for i, en := range page.Entries {
		if en.Shard == "" {
			t.Fatalf("entry %d has no shard tag", i)
		}
		shards[en.Shard] = true
		if i > 0 && en.Nanos > page.Entries[i-1].Nanos {
			t.Errorf("entries not slowest-first at %d", i)
		}
		if en.TraceWire == "" {
			t.Fatalf("entry %d (shard %s) has no wire trace", i, en.Shard)
		}
		buf, err := base64.StdEncoding.DecodeString(en.TraceWire)
		if err != nil {
			t.Fatalf("entry %d: wire not base64: %v", i, err)
		}
		wt, err := obs.DecodeTraceWire(buf)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if wt.TotalDA() != en.DA {
			t.Errorf("entry %d: wire trace DA %d, entry DA %d", i, wt.TotalDA(), en.DA)
		}
	}
	if len(shards) < 2 {
		t.Errorf("merged log covers %d shard(s), want the fan-out to hit several: %v", len(shards), shards)
	}
}
