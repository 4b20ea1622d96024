package cluster

import (
	"fmt"
	"io"
	"time"

	"dmesh/internal/dm"
	"dmesh/internal/geom"
	"dmesh/internal/obs"
	"dmesh/internal/stream"
)

// StreamStats describes how one progressive answer was assembled and
// what it cost on the wire.
type StreamStats struct {
	SnappedE float64 // the ladder rung the full stream decodes to
	Batches  int     // batches in the stream (ladder rungs, coarse to fine)
	Sent     int     // frames actually written (resume skips the rest)

	BytesToFirst int // header + coarsest batch: the first-render cost
	BytesToExact int // header + every batch: the exact-answer cost
	BytesSent    int // bytes actually written for this request

	// Fan-out accounting summed over every rung's Query (see QueryStats);
	// the invariant Attempts == Tiles + Redirected holds for the whole
	// stream.
	DA         uint64
	Tiles      int
	Attempts   int
	Redirected int
	Requests   int

	// TraceDA sums the rungs' shard-trace-accounted DA (see
	// QueryStats.TraceDA); zero on untraced streams.
	TraceDA uint64
}

// StreamTraced assembles the progressive answer for Q(r, e) from per-shard
// patch fetches and writes it to w: for each LOD-ladder rung from the
// coarsest down to the rung e snaps to, it fans the rung's tile cover
// out across the cluster, stitches exactly, and encodes the delta
// batch. The bytes written are identical to a single node's /stream
// body for the same query — both sides encode identical canonical
// meshes with the same deterministic codec — so a client cannot tell
// whether its stream was assembled by one process or a cluster.
//
// resume is the last batch index the client already holds (-1 streams
// everything). Earlier rungs are still queried — the delta state needs
// them — but not transmitted. The returned Result is the full-stream
// mesh (the direct answer at the snapped rung).
//
// It records phase spans on tr (which may be nil, and must be
// charge-based like QueryTraced's): one root span over the whole stream,
// the rung queries' fan-out hops beneath it, encode spans for the codec
// work, and PhaseStreamReplay spans wrapping the rungs a resumed stream
// re-runs only to rebuild delta state.
//
// The next rung's fan-out is launched as soon as a rung's tiles have
// arrived, so it runs while that rung is stitched, encoded and written.
// The lookahead is one rung: more fan-outs in flight make the first rung's
// own fetches wait behind them, and the first mesh arrives later. Every
// return waits for the rung still in flight and recycles its patches.
func (rt *Router) StreamTraced(r geom.Rect, e float64, resume int, w io.Writer, tr *obs.Trace) (*dm.Result, StreamStats, error) {
	band, snapped := rt.grid.SnapE(e)
	st := StreamStats{SnappedE: snapped}
	enc, err := stream.Plan(r, rt.ladder, band, resume)
	if err != nil {
		return nil, st, fmt.Errorf("cluster: %w", err)
	}
	levels, _ := stream.LevelsFor(rt.ladder, band) // Plan checked band
	st.Batches = enc.NumBatches()
	start := time.Now()
	ahead, next := rt.launch(r, levels[0], tr), 1
	defer func() { ahead.wait(); ahead.release() }()
	res, sent, err := enc.Run(w, tr, func(float64) (*dm.Result, error) {
		f := ahead
		ahead = nil
		res, qs, err := rt.finish(f, tr, func() {
			if next < len(levels) {
				ahead = rt.launch(r, levels[next], tr)
				next++
			}
		})
		if err != nil {
			return nil, err
		}
		st.DA += qs.DA
		st.Tiles += qs.Tiles
		st.Attempts += qs.Attempts
		st.Redirected += qs.Redirected
		st.Requests += qs.Requests
		st.TraceDA += qs.TraceDA
		return res, nil
	})
	st.Sent, st.BytesSent = sent.Frames, sent.Bytes
	st.BytesToFirst, st.BytesToExact = sent.BytesToFirst, sent.BytesToExact
	if err != nil {
		return nil, st, fmt.Errorf("cluster: %w", err)
	}
	rt.hStreamNs.Observe(uint64(time.Since(start)))
	return res, st, nil
}
