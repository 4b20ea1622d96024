package main

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"dmesh"
	"dmesh/internal/dm"
	"dmesh/internal/geom"
	"dmesh/internal/obs"
	"dmesh/internal/stream"
)

// workloadDef is one serving shape: what it starts, how a client issues
// one op against it, and what the exact answer is.
type workloadDef struct {
	name string
	why  string
	// serialRate and concRate are the ops per second one client completes
	// on the reference host in the serial leg (its off-clock prologue and
	// host-speed probe included) and in the concurrent leg. They turn the
	// -seconds budget into fixed op counts; see planFor.
	serialRate, concRate float64
	warm                 int
	// edges says whether the answer carries mesh edges (the JSON
	// endpoints ship vertices and triangles only).
	edges bool
	// start brings up the stores and servers, charging set-up stages.
	start func(s *system) error
	// before runs off the clock ahead of every serial-leg op.
	before func(s *system) error
	// do issues one op for one client and returns when the client holds
	// the full answer. The caller runs the clock around it. client names
	// the client's session of the current round.
	do func(s *system, client string, o op, traced bool) answer
	// oracle answers the same op by direct query on the reference store.
	oracle func(r *reference, o op) (*dm.Result, error)
	// guards fail the run when the workload no longer isolates the layers
	// it is there for.
	guards []guard
	// pipeline names the shadow pipeline (layers.go) that replays this
	// workload's own ops; endpoint the one whose HTTP figures stand for
	// "the workload's endpoint". A workload with no wire reports what /tile
	// would have cost on its inputs.
	pipeline, endpoint string
}

// gauges are the serial-leg figures the separation guards look at.
type gauges struct {
	daPerOp     float64 // store disk accesses per op
	hitRatio    float64 // tile-cache hits / lookups
	fullFrac    float64 // coherent frames answered by a full query
	firstOverOp float64 // first_mesh_p50_ms / op_p50_ms
}

// guard is one separation check: the figure it read and whether it holds.
type guard struct {
	name  string
	check func(g gauges) (float64, bool)
}

// answer is what one op brought back, plus what the harness read off the
// call: nothing in it is computed on the clock beyond what a client must
// do to hold the mesh.
type answer struct {
	err   error
	first time.Duration // issue to first renderable mesh; 0 = the full answer
	da    uint64        // store disk accesses the program charged to the op
	wire  int           // response-body bytes the client received

	mesh *dm.Result // library answers
	body []byte     // JSON answers, decoded after the clock stops
	json *jsonMesh  // the decoded body's accounting fields

	// Program-side phase self times (traced ops only), by obs phase name.
	phases map[string]time.Duration

	redirected int // cluster: tiles served by a later candidate after a failure
}

// jsonMesh is the shape /tile and /frame answer in.
type jsonMesh struct {
	LOD          float64               `json:"lod"`
	Full         bool                  `json:"full"`
	Retained     int                   `json:"retained"`
	Fetched      int                   `json:"fetched"`
	Vertices     map[string][3]float64 `json:"vertices"`
	Triangles    [][3]int64            `json:"triangles"`
	Session      string                `json:"session"`
	DiskAccesses uint64                `json:"disk_accesses"`
}

// decode turns a JSON answer into a mesh. encoding/json prints float64
// in the shortest form that parses back to the same bits, so positions
// survive exactly.
func (a *answer) decode() (*dm.Result, *jsonMesh, error) {
	if a.mesh != nil {
		return a.mesh, nil, nil
	}
	var jm jsonMesh
	if err := json.Unmarshal(a.body, &jm); err != nil {
		return nil, nil, fmt.Errorf("decoding answer: %w", err)
	}
	res := &dm.Result{Vertices: make(map[int64]geom.Point3, len(jm.Vertices))}
	for k, p := range jm.Vertices {
		id, err := strconv.ParseInt(k, 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("decoding answer: vertex id %q: %w", k, err)
		}
		res.Vertices[id] = geom.Point3{X: p[0], Y: p[1], Z: p[2]}
	}
	for _, t := range jm.Triangles {
		res.Triangles = append(res.Triangles, geom.Triangle{A: t[0], B: t[1], C: t[2]})
	}
	jm.Vertices, jm.Triangles = nil, nil // keep only the accounting fields
	return res, &jm, nil
}

func phaseSelf(spans []obs.Span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for i := range spans {
		out[spans[i].Phase.String()] += spans[i].SelfDur()
	}
	return out
}

// get issues one GET and reads the whole body: the clock a caller runs
// around it stops at the last body byte.
func get(c *http.Client, url string, traced bool) answer {
	if traced {
		url += "&trace=1"
	}
	resp, err := c.Get(url)
	if err != nil {
		return answer{err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return answer{err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return answer{err: fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, body)}
	}
	a := answer{body: body, wire: len(body)}
	if traced {
		raw, err := base64.StdEncoding.DecodeString(resp.Header.Get("X-DM-Trace"))
		if err != nil {
			return answer{err: fmt.Errorf("GET %s: X-DM-Trace: %w", url, err)}
		}
		wt, err := obs.DecodeTraceWire(raw)
		if err != nil {
			return answer{err: fmt.Errorf("GET %s: %w", url, err)}
		}
		a.phases = phaseSelf(wt.Spans)
	}
	return a
}

func rectQuery(r geom.Rect) string {
	return fmt.Sprintf("x0=%g&y0=%g&x1=%g&y1=%g", r.MinX, r.MinY, r.MaxX, r.MaxY)
}

// routerTrace is the charge-based trace Router.QueryTraced requires.
func routerTrace(traced bool) *obs.Trace {
	if !traced {
		return nil
	}
	return dmesh.NewQueryTrace(nil)
}

// uniformOracle is the direct query at the LOD the tile ladder snapped
// the request to.
func uniformOracle(r *reference, o op) (*dm.Result, error) {
	_, snapped := r.grid.SnapE(r.terrain.LODPercentile(o.Pct))
	return r.store.NewSession().ViewpointIndependent(o.ROI, snapped)
}

var workloads = []workloadDef{
	{
		name:       "hot_patch",
		why:        "2-shard cluster over loopback HTTP, hot working set fits the tile caches: cluster fan-out, /patch encode/decode and stitch do all the work, the store none",
		serialRate: 260, concRate: 185, warm: 300, edges: true,
		pipeline: "patch", endpoint: "patch",
		start: (*system).startCluster,
		guards: []guard{
			{"da_per_op_lt_1", func(g gauges) (float64, bool) { return g.daPerOp, g.daPerOp < 1 }},
			{"hit_ratio_ge_0.95", func(g gauges) (float64, bool) { return g.hitRatio, g.hitRatio >= 0.95 }},
		},
		do: func(s *system, _ string, o op, traced bool) answer {
			before := s.wire.bytes.Load()
			tr := routerTrace(traced)
			res, st, err := s.rt.QueryTraced(o.ROI, s.terrain.LODPercentile(o.Pct), tr)
			a := answer{err: err, mesh: res, da: st.DA, redirected: st.Redirected}
			// Exact for one client; with several, the per-op split is
			// meaningless and only the leg total is used.
			a.wire = int(s.wire.bytes.Load() - before)
			if tr != nil {
				a.phases = phaseSelf(tr.Spans())
			}
			return a
		},
		oracle: uniformOracle,
	},
	{
		name:       "cold_direct",
		why:        "in-process sessions on a file-backed store whose pool is 1% of the data, caches dropped before every op: rtree, pager, heap file, record decode and triangulation only",
		serialRate: 280, concRate: 295, warm: 18, edges: true,
		pipeline: "direct", endpoint: "tile",
		start:  (*system).startCold,
		before: func(s *system) error { return s.cold.DropCaches() },
		guards: []guard{
			{"da_per_op_gt_20", func(g gauges) (float64, bool) { return g.daPerOp, g.daPerOp > 20 }},
		},
		do: func(s *system, _ string, o op, traced bool) answer {
			sess := s.cold.NewSession()
			var tr *obs.Trace
			if traced {
				tr = sess.NewTrace()
			}
			var a answer
			if o.viewDependent() {
				a.mesh, a.err = sess.MultiBase(o.plane(s.terrain), s.coldModel, 0)
			} else {
				a.mesh, a.err = sess.ViewpointIndependent(o.ROI, s.terrain.LODPercentile(o.Pct))
			}
			a.da = sess.DiskAccesses()
			if tr != nil {
				a.phases = phaseSelf(tr.Spans())
			}
			return a
		},
		oracle: func(r *reference, o op) (*dm.Result, error) {
			if o.viewDependent() {
				return r.store.NewSession().MultiBase(o.plane(r.terrain), r.model, 0)
			}
			return r.store.NewSession().ViewpointIndependent(o.ROI, r.terrain.LODPercentile(o.Pct))
		},
	},
	{
		name:       "churn_tile",
		why:        "single node serving /tile JSON with a 14 MiB cache against a ~26 MB working set: materialization, insert and eviction run beside hits, and JSON encoding is on the path",
		serialRate: 170, concRate: 150, warm: 200,
		pipeline: "tile", endpoint: "tile",
		start: func(s *system) error { return s.startNode(churnCacheBytes) },
		guards: []guard{
			{"hit_ratio_in_0.3_0.7", func(g gauges) (float64, bool) { return g.hitRatio, g.hitRatio >= 0.3 && g.hitRatio <= 0.7 }},
		},
		do: func(s *system, _ string, o op, traced bool) answer {
			return get(s.httpc, fmt.Sprintf("%s/tile?%s&lod=%g", s.nodeTS.URL, rectQuery(o.ROI), o.Pct), traced)
		},
		oracle: uniformOracle,
	},
	{
		name:       "flyover_frame",
		why:        "single node serving /frame to coherent sessions whose consecutive frames share 90% of their volume: retain, delta-fetch, evict, repair and the delta-versus-full decision",
		serialRate: 82, concRate: 82, warm: 20,
		pipeline: "frame", endpoint: "frame",
		start: func(s *system) error { return s.startNode(0) },
		guards: []guard{
			{"full_frac_lt_0.2", func(g gauges) (float64, bool) { return g.fullFrac, g.fullFrac < 0.2 }},
		},
		do: func(s *system, client string, o op, traced bool) answer {
			return get(s.httpc, fmt.Sprintf("%s/frame?session=%s&%s&near=%g&far=%g",
				s.nodeTS.URL, client, rectQuery(o.ROI), o.Near, o.Far), traced)
		},
		oracle: func(r *reference, o op) (*dm.Result, error) {
			return r.store.NewSession().SingleBase(o.plane(r.terrain))
		},
	},
	{
		name:       "progressive_stream",
		why:        "Router.Stream on a 2-shard cluster into a client-side stream.Decoder, six batches per op: stream encode/decode plus one fan-out per rung; the first mesh arrives long before the exact one",
		serialRate: 33, concRate: 28, warm: 60, edges: true,
		pipeline: "stream", endpoint: "stream",
		start: (*system).startCluster,
		guards: []guard{
			{"first_mesh_lt_half_op", func(g gauges) (float64, bool) { return g.firstOverOp, g.firstOverOp < 0.5 }},
		},
		do: func(s *system, _ string, o op, traced bool) answer {
			start := time.Now()
			pr, pw := io.Pipe()
			type outcome struct {
				da         uint64
				redirected int
				phases     map[string]time.Duration
			}
			done := make(chan outcome, 1) // one send, read after the decoder is through
			go func() {
				tr := routerTrace(traced)
				_, st, err := s.rt.StreamTraced(o.ROI, s.terrain.LODPercentile(o.Pct), -1, pw, tr)
				out := outcome{da: st.DA, redirected: st.Redirected}
				if tr != nil && err == nil {
					out.phases = phaseSelf(tr.Spans())
				}
				pw.CloseWithError(err)
				done <- out
			}()
			var a answer
			dec := stream.NewDecoder()
			a.err = dec.Attach(pr)
			for a.err == nil && !dec.Done() {
				if _, _, a.err = dec.Next(); a.err == nil && a.first == 0 {
					a.first = time.Since(start)
				}
			}
			if a.err == nil {
				a.mesh = dec.Mesh()
			}
			pr.Close() // unblocks the writer if the decoder gave up early
			out := <-done
			a.da, a.redirected, a.phases = out.da, out.redirected, out.phases
			a.wire = int(dec.BytesRead())
			return a
		},
		oracle: uniformOracle,
	},
}

// churnCacheBytes holds enough of churn_tile's ~26 MB of tiles for six
// lookups in ten to hit: inside the 0.3-0.7 band the workload is defined
// by, and a tenth away from both its ceiling and the half-way point. (At
// 8 MiB the ratio is 0.27-0.38 and the band's floor cuts through it; at 16
// MiB it is 0.71.)
const churnCacheBytes = 14 << 20

func workloadByName(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
