package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"

	"dmesh/internal/obs"
	"dmesh/internal/wire"
)

const (
	// maxShardBody caps the response body the router will buffer from a
	// shard. A declared Content-Length above it fails the request before
	// anything is allocated, so a hostile or broken shard costs one
	// failed attempt, not a multi-gigabyte buffer. (The largest honest
	// body — a whole 1025² terrain in one patch — is well under it.)
	maxShardBody = 256 << 20
	// maxErrorEcho caps how much of a non-200 response body is quoted in
	// the error the failed attempt reports.
	maxErrorEcho = 256
)

// readBody consumes and closes a shard response, returning the whole
// body of a 200 and an error for anything else. It reads what the shard
// declared, once: the body is sized from Content-Length (bounded by
// maxShardBody) and filled exactly. A body that ends early is the
// transport's io.ErrUnexpectedEOF; one that lies about its length —
// above the limit, or longer than declared — is wire.ErrCorrupt. Either
// way it is one failed attempt. Only a response without a declared
// length falls back to a (bounded) read-to-EOF.
//
// A declared body is read into *buf (a fresh buffer when buf is nil),
// which is replaced by a larger array first if it is too small, so the
// returned body aliases *buf. A body read to EOF never does.
func readBody(resp *http.Response, url string, buf *[]byte) ([]byte, error) {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// The excerpt is best effort: a read error just shortens it.
		excerpt, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorEcho))
		return nil, fmt.Errorf("cluster: %s: status %d: %s", url, resp.StatusCode, excerpt)
	}
	n := resp.ContentLength
	if n > maxShardBody {
		return nil, fmt.Errorf("cluster: %s: declared body of %d bytes exceeds the %d-byte limit: %w",
			url, n, maxShardBody, wire.ErrCorrupt)
	}
	if n < 0 {
		body, err := io.ReadAll(io.LimitReader(resp.Body, maxShardBody+1))
		if err != nil {
			return nil, fmt.Errorf("cluster: %s: %w", url, err)
		}
		if len(body) > maxShardBody {
			return nil, fmt.Errorf("cluster: %s: body exceeds the %d-byte limit: %w", url, maxShardBody, wire.ErrCorrupt)
		}
		return body, nil
	}
	if buf == nil {
		buf = new([]byte)
	}
	if int64(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	body := (*buf)[:n]
	if got, err := io.ReadFull(resp.Body, body); err != nil {
		return nil, fmt.Errorf("cluster: %s: truncated body (%d of %d declared bytes): %w", url, got, n, err)
	}
	// One more byte would be a body longer than declared. Go's transport
	// stops at the declared length itself; the probe covers any other
	// RoundTripper, and costs nothing here (the transport has already
	// seen EOF, so the connection is reusable either way).
	var probe [1]byte
	if extra, _ := resp.Body.Read(probe[:]); extra > 0 {
		return nil, fmt.Errorf("cluster: %s: body longer than the %d declared bytes: %w", url, n, wire.ErrCorrupt)
	}
	return body, nil
}

// scrape GETs one shard introspection URL and returns the whole body,
// under the same read discipline as the tile path (readBody).
func (rt *Router) scrape(url string) ([]byte, error) {
	resp, err := rt.client.Get(url)
	if err != nil {
		return nil, err
	}
	return readBody(resp, url, nil)
}

// Handler mounts the router's cluster-wide observability surface:
//
//   - /clustermetrics — every shard's /metrics plus the router's own
//     registry, parsed and merged deterministically (shards visited in
//     configuration order, metrics emitted name-sorted): counters and
//     histogram buckets sum bucket-wise, so the page reads like one
//     process serving the whole cluster. Synthetic gauges report how
//     many shards answered the scrape.
//   - /clusterhealth — each shard's /healthz + /readyz merged, shard
//     order preserved; 200 only when every shard is ready.
//   - /clusterslowlog — every shard's slow log merged (slowest first,
//     shard-tagged), each entry carrying its wire trace for drill-down.
//
// The merged pages go out through obs.WriteBody, like every fixed-size
// response in the repo.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/clustermetrics", rt.handleClusterMetrics)
	mux.HandleFunc("/clusterhealth", rt.handleClusterHealth)
	mux.HandleFunc("/clusterslowlog", rt.handleClusterSlowLog)
	return mux
}

// clusterError answers a failed merge. Write errors are dropped on every
// merged page: a scraper that hung up needs no log line.
func clusterError(w http.ResponseWriter, status int, err error) {
	_ = obs.WriteError(w, status, err)
}

// handleClusterMetrics scrapes every shard's /metrics, merges them with
// the router's own registry, and serves the union. A shard that fails
// to answer contributes nothing — visible in the synthetic
// cluster_shards_scraped gauge — so the page stays available through
// partial outages.
func (rt *Router) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	snaps := []*obs.PromSnapshot{rt.reg.Snapshot()}
	scraped := 0
	for _, base := range rt.shards { // configuration order: deterministic
		body, err := rt.scrape(base + "/metrics")
		if err != nil {
			continue
		}
		snap, err := obs.ParsePrometheus(bytes.NewReader(body))
		if err != nil {
			continue
		}
		snaps = append(snaps, snap)
		scraped++
	}
	merged, err := obs.MergePrometheus(snaps...)
	if err != nil {
		clusterError(w, http.StatusInternalServerError, err)
		return
	}
	merged.Metrics["cluster_shards_total"] = &obs.PromMetric{
		Name: "cluster_shards_total", Help: "shards configured on this router",
		Kind: "gauge", Value: int64(len(rt.shards)),
	}
	merged.Metrics["cluster_shards_scraped"] = &obs.PromMetric{
		Name: "cluster_shards_scraped", Help: "shards whose /metrics answered this scrape",
		Kind: "gauge", Value: int64(scraped),
	}
	obs.WriteMetrics(w, merged)
}

// ShardHealth is one shard's probe outcome in /clusterhealth.
type ShardHealth struct {
	ID      string `json:"id"`
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	Ready   bool   `json:"ready"`
	Error   string `json:"error,omitempty"`
}

// ClusterHealth is the /clusterhealth body.
type ClusterHealth struct {
	Status string        `json:"status"` // "ready" or "degraded"
	Ready  int           `json:"ready_shards"`
	Total  int           `json:"total_shards"`
	Shards []ShardHealth `json:"shards"`
}

// Health probes every shard's /healthz and /readyz, in configuration
// order. The cluster is "ready" only when every shard is.
func (rt *Router) Health() ClusterHealth {
	ch := ClusterHealth{Total: len(rt.shards)}
	for i, base := range rt.shards {
		sh := ShardHealth{ID: rt.ids[i], URL: base}
		if _, err := rt.scrape(base + "/healthz"); err != nil {
			sh.Error = err.Error()
		} else {
			sh.Healthy = true
			if _, err := rt.scrape(base + "/readyz"); err != nil {
				sh.Error = err.Error()
			} else {
				sh.Ready = true
				ch.Ready++
			}
		}
		ch.Shards = append(ch.Shards, sh)
	}
	if ch.Ready == ch.Total {
		ch.Status = "ready"
	} else {
		ch.Status = "degraded"
	}
	return ch
}

func (rt *Router) handleClusterHealth(w http.ResponseWriter, r *http.Request) {
	ch := rt.Health()
	status := http.StatusOK
	if ch.Status != "ready" {
		status = http.StatusServiceUnavailable
	}
	_ = obs.WriteJSON(w, status, ch)
}

// ClusterSlowEntry is one shard's slow-log entry tagged with the shard
// it came from. The embedded entry keeps its wire trace, so the merged
// log still drills down to per-span DA on any hop.
type ClusterSlowEntry struct {
	Shard string `json:"shard"`
	obs.SlowEntry
}

// handleClusterSlowLog merges every shard's /slowlog, slowest first
// (ties: shard order, then newest), capped like a shard's own page
// (obs.SlowLogLimit).
func (rt *Router) handleClusterSlowLog(w http.ResponseWriter, r *http.Request) {
	n, err := obs.SlowLogLimit(r)
	if err != nil {
		clusterError(w, http.StatusBadRequest, err)
		return
	}
	var entries []ClusterSlowEntry
	scraped := 0
	for i, base := range rt.shards {
		body, err := rt.scrape(fmt.Sprintf("%s/slowlog?n=%d", base, n))
		if err != nil {
			continue
		}
		var page struct {
			Entries []obs.SlowEntry `json:"entries"`
		}
		if err := json.Unmarshal(body, &page); err != nil {
			continue
		}
		for _, e := range page.Entries {
			entries = append(entries, ClusterSlowEntry{Shard: rt.ids[i], SlowEntry: e})
		}
		scraped++
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Dur != entries[j].Dur {
			return entries[i].Dur > entries[j].Dur
		}
		if entries[i].Shard != entries[j].Shard {
			return entries[i].Shard < entries[j].Shard
		}
		return entries[i].Seq > entries[j].Seq
	})
	if len(entries) > n {
		entries = entries[:n]
	}
	_ = obs.WriteJSON(w, http.StatusOK, struct {
		ScrapedShards int                `json:"scraped_shards"`
		TotalShards   int                `json:"total_shards"`
		Entries       []ClusterSlowEntry `json:"entries"`
	}{scraped, len(rt.shards), entries})
}
