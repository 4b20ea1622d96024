package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// WriteBody sends a fully rendered response. Every fixed-size response
// in the repo goes out through here: the body is in hand before the
// header is, so the status line and Content-Length always describe the
// bytes actually sent, and a connection cut mid-body surfaces at the
// client as a short read (to the cluster router, a failed attempt
// eligible for failover) instead of a clean-looking truncated 200. The
// returned error is the write's; the caller decides whether to log it.
//
// A body given in parts goes out as the parts back to back, each written
// where it lies: a multi-key /patch response is its tiles' memoized
// encodings, never copied into one buffer.
func WriteBody(w http.ResponseWriter, status int, contentType string, body ...[]byte) error {
	n := 0
	for _, part := range body {
		n += len(part)
	}
	h := w.Header()
	h.Set("Content-Type", contentType)
	h.Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(status)
	for _, part := range body {
		if _, err := w.Write(part); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders v as one line of JSON and sends it with WriteBody.
// A value that cannot be encoded becomes a 500 with a fixed JSON body,
// so the client still parses what it gets.
func WriteJSON(w http.ResponseWriter, status int, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		status, body = http.StatusInternalServerError, []byte(`{"error":"response encoding failed"}`)
	}
	return WriteBody(w, status, "application/json", append(body, '\n'))
}

// WriteError answers a failed request with {"error": ...}, so API
// clients parsing every response get structured errors instead of
// plain text.
func WriteError(w http.ResponseWriter, status int, err error) error {
	return WriteJSON(w, status, map[string]string{"error": err.Error()})
}

// WriteMetrics serves a metrics page — one registry's, or the router's
// merge of a cluster's — in Prometheus text exposition format. Write
// errors are dropped, here and in SlowLogHandler: a scraper that hung up
// needs no log line.
func WriteMetrics(w http.ResponseWriter, snap *PromSnapshot) {
	var buf bytes.Buffer
	_ = snap.WriteText(&buf) // a bytes.Buffer takes every write
	_ = WriteBody(w, http.StatusOK, "text/plain; version=0.0.4; charset=utf-8", buf.Bytes())
}

// MetricsHandler serves the registry with WriteMetrics.
func MetricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) { WriteMetrics(w, r.Snapshot()) })
}

// SlowLogLimit reads a slow-log page's n query parameter, the cap on the
// entries returned: a positive integer, 20 when absent.
func SlowLogLimit(req *http.Request) (int, error) {
	s := req.URL.Query().Get("n")
	if s == "" {
		return 20, nil
	}
	if n, err := strconv.Atoi(s); err == nil && n > 0 {
		return n, nil
	}
	return 0, errors.New("n must be a positive integer")
}

// SlowLogHandler serves the slow log as JSON, slowest first, at most
// SlowLogLimit entries.
func SlowLogHandler(l *SlowLog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		n, err := SlowLogLimit(req)
		if err != nil {
			_ = WriteError(w, http.StatusBadRequest, err)
			return
		}
		_ = WriteJSON(w, http.StatusOK, struct {
			ThresholdNanos int64       `json:"threshold_nanos"`
			Entries        []SlowEntry `json:"entries"`
		}{int64(l.Threshold()), l.Worst(n)})
	})
}

// RegisterDebug mounts the /debug/pprof/ suite on mux. The stdlib
// registers it only on http.DefaultServeMux; servers with their own mux
// need this explicit mount.
func RegisterDebug(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
