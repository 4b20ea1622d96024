package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"dmesh"
	"dmesh/internal/geom"
)

// The shapes /tile and /frame answered through json.Marshal before
// meshBody wrote them: the reference every body here is compared to.
type meshJSON struct {
	Vertices  map[string][3]float64 `json:"vertices"`
	Triangles [][3]int64            `json:"triangles"`
}

func meshJSONOf(res *dmesh.Result) meshJSON {
	m := meshJSON{
		Vertices:  make(map[string][3]float64, len(res.Vertices)),
		Triangles: make([][3]int64, 0, len(res.Triangles)),
	}
	for id, p := range res.Vertices {
		m.Vertices[strconv.FormatInt(id, 10)] = [3]float64{p.X, p.Y, p.Z}
	}
	for _, t := range res.Triangles {
		m.Triangles = append(m.Triangles, [3]int64{t.A, t.B, t.C})
	}
	return m
}

type tileResponse struct {
	LOD float64 `json:"lod"`
	meshJSON
	DiskAccesses uint64 `json:"disk_accesses"`
}

type frameResponse struct {
	Session  string `json:"session"`
	Full     bool   `json:"full"`
	Retained int    `json:"retained"`
	Fetched  int    `json:"fetched"`
	Evicted  int    `json:"evicted"`
	meshJSON
	DiskAccesses uint64 `json:"disk_accesses"`
}

// checkBodies writes both bodies for one answer through m and compares
// each with json.Marshal of its reference plus '\n': the same bytes, or
// the same error.
func checkBodies(t *testing.T, m *meshBody, lod float64, session string, st dmesh.FrameStats, res *dmesh.Result) {
	t.Helper()
	for _, c := range []struct {
		name string
		ref  any
		body func() ([]byte, error)
	}{
		{"tile", tileResponse{LOD: lod, meshJSON: meshJSONOf(res), DiskAccesses: st.DA},
			func() ([]byte, error) { return m.tile(lod, res, st.DA) }},
		{"frame", frameResponse{Session: session, Full: st.Full, Retained: st.Retained, Fetched: st.Fetched,
			Evicted: st.Evicted, meshJSON: meshJSONOf(res), DiskAccesses: st.DA},
			func() ([]byte, error) { return m.frame(session, st, res) }},
	} {
		want, werr := json.Marshal(c.ref)
		got, gerr := c.body()
		switch {
		case werr != nil || gerr != nil:
			if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
				t.Fatalf("%s: error %v, json.Marshal's %v", c.name, gerr, werr)
			}
		case !bytes.Equal(got, append(want, '\n')):
			want = append(want, '\n')
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("%s: %d bytes, json.Marshal %d; first difference at %d:\n got %q\nwant %q",
				c.name, len(got), len(want), i, got[max(0, i-40):min(len(got), i+40)], want[max(0, i-40):min(len(want), i+40)])
		}
	}
}

// edgeIDs sit at every digit boundary of either sign, where the decimal
// order and the numeric order part ways.
var edgeIDs = []int64{0, 1, 9, 10, 11, 19, 99, 100, 101, 999, 1000, 1001, 99999, 100000,
	999999999999999999, 1000000000000000000, math.MaxInt64, math.MaxInt64 - 1,
	-1, -9, -10, -11, -99, -100, math.MinInt64, math.MinInt64 + 1}

// edgeFloats straddle the 'f'/'e' switches at 1e-6 and 1e21 and reach
// both ends of the float64 range.
var edgeFloats = []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, math.Nextafter(1e-6, 0), 1e-7, 1.5e-7,
	1e-10, 1e-100, 1e20, 1e21, math.Nextafter(1e21, 0), -1e21, 1e22, 1.2345e300, math.MaxFloat64,
	-math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 4e-320, 123456789.125}

// hostileNames reach every branch of encoding/json's string escaping.
var hostileNames = []string{"", "cam1", "c0", "<", "b>", "a&b", `q"uote`, `back\slash`, "\x00\x01\x1f",
	"\b\f\n\r\t", "\x7f", "\xff", "\xc3", "\xe2\x80", "\u2028\u2029", "é日本", "a\u2028b\xffc<d"}

func TestMeshBodyMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randID := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return edgeIDs[rng.Intn(len(edgeIDs))]
		case 1:
			return int64(rng.Uint64())
		default: // dense small IDs of mixed widths, as real meshes have
			return rng.Int63n(int64(math.Pow10(1 + rng.Intn(7))))
		}
	}
	randFloat := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return edgeFloats[rng.Intn(len(edgeFloats))]
		case 1:
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
			return rng.Float64()
		case 2:
			return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(61)-30))
		default:
			return rng.Float64()
		}
	}
	var m meshBody // reused across cases, as the pool reuses one
	for i := 0; i < 2000; i++ {
		res := &dmesh.Result{}
		if n := rng.Intn(40); n > 0 || rng.Intn(2) == 0 {
			res.Vertices = make(map[int64]geom.Point3, n)
			for j := 0; j < n; j++ {
				res.Vertices[randID()] = geom.Point3{X: randFloat(), Y: randFloat(), Z: randFloat()}
			}
		}
		for j := rng.Intn(30); j > 0; j-- {
			res.Triangles = append(res.Triangles, geom.Triangle{A: randID(), B: randID(), C: randID()})
		}
		lod := randFloat()
		if i%10 == 9 { // one case in ten has a float with no JSON form
			bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
			if len(res.Vertices) == 0 || rng.Intn(4) == 0 {
				lod = bad
			} else {
				for id, p := range res.Vertices {
					p.Y = bad
					res.Vertices[id] = p
					break
				}
			}
		}
		name := hostileNames[rng.Intn(len(hostileNames))]
		if rng.Intn(4) == 0 {
			raw := make([]byte, rng.Intn(12))
			rng.Read(raw)
			name = string(raw)
		}
		st := dmesh.FrameStats{Full: rng.Intn(2) == 0, Retained: int(rng.Int63()), Fetched: rng.Intn(5000),
			Evicted: -rng.Intn(3), DA: rng.Uint64()}
		checkBodies(t, &m, lod, name, st, res)
	}
}

// FuzzMeshJSON holds meshBody to json.Marshal on arbitrary answers: every
// 32 bytes of data are one vertex (ID, then x, y, z as raw float64 bits,
// so NaN and the infinities come up), and each vertex also opens a
// triangle over its own and its neighbours' IDs.
func FuzzMeshJSON(f *testing.F) {
	vertex := func(id int64, x, y, z float64) []byte {
		b := binary.LittleEndian.AppendUint64(nil, uint64(id))
		for _, c := range []float64{x, y, z} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c))
		}
		return b
	}
	f.Add("cam1", 0.5, uint64(0), []byte{})
	f.Add("c<>&\"\\\x01\xff\u2028", 1e-7, uint64(42), append(vertex(9, 0.25, 1e21, math.Copysign(0, -1)), vertex(10, 5e-324, 1, 2)...))
	f.Add("", 1e21, uint64(math.MaxUint64), append(vertex(math.MinInt64, 1, 2, 3), vertex(math.MaxInt64, math.NaN(), 0, 0)...))
	f.Fuzz(func(t *testing.T, session string, lod float64, da uint64, data []byte) {
		res := &dmesh.Result{Vertices: map[int64]geom.Point3{}}
		var ids []int64
		for ; len(data) >= 32; data = data[32:] {
			id := int64(binary.LittleEndian.Uint64(data))
			c := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:])) }
			res.Vertices[id] = geom.Point3{X: c(1), Y: c(2), Z: c(3)}
			ids = append(ids, id)
		}
		for i := range ids {
			res.Triangles = append(res.Triangles, geom.Triangle{A: ids[i], B: ids[(i+1)%len(ids)], C: ids[(i+2)%len(ids)]})
		}
		st := dmesh.FrameStats{Full: da%2 == 0, Retained: len(ids), Fetched: int(da % 1000), Evicted: len(data), DA: da}
		checkBodies(t, new(meshBody), lod, session, st, res)
	})
}

// TestMeshBodyAllocations pins what a /frame body for a 2 000-vertex
// answer costs through the pool: measured 0 a body, and 3 (the struct,
// its buffer and its key scratch) when the pool has to make a writer.
// json.Marshal of the re-keyed map made 5 999 on this fixture, three a
// vertex; anything a vertex, or any reflection, fails here before any
// benchmark runs.
func TestMeshBodyAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	res := &dmesh.Result{Vertices: make(map[int64]geom.Point3, 2000)}
	for id := int64(0); id < 2000; id++ {
		res.Vertices[id*7] = geom.Point3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
	}
	for id := int64(0); id+2 < 2000; id++ {
		res.Triangles = append(res.Triangles, geom.Triangle{A: 7 * id, B: 7 * (id + 1), C: 7 * (id + 2)})
	}
	st := dmesh.FrameStats{Retained: 1800, Fetched: 200, Evicted: 150}
	allocs := testing.AllocsPerRun(50, func() {
		m := meshBodies.Get().(*meshBody)
		if _, err := m.frame("cam1", st, res); err != nil {
			t.Fatal(err)
		}
		meshBodies.Put(m)
	})
	// A GC inside the run empties the pool, and under -race Put drops one
	// writer in four; either costs those three allocations.
	if allocs > 2 {
		t.Errorf("a 2 000-vertex /frame body costs %.1f allocations, want at most 2", allocs)
	}
}

// scribbler stands in for another request that takes a writer from the
// pool while this response is still going out: before it passes a body
// on, it zeroes the whole buffer of the writer the pool hands it. A
// writer put back before its body is written is the one the pool hands
// out next on the same P, so that body arrives zeroed; /patch's memoized
// bytes, were they ever pooled, would stay zeroed for every later reader.
type scribbler struct{ *httptest.ResponseRecorder }

func (s scribbler) Write(p []byte) (int, error) {
	m := meshBodies.Get().(*meshBody)
	clear(m.b[:cap(m.b)])
	meshBodies.Put(m)
	return s.ResponseRecorder.Write(p)
}

// TestPooledWriterOutlivesItsBody sends the same requests, one at a time,
// to two fresh servers, one of them answering into a scribbler, and
// wants the same bytes from both.
func TestPooledWriterOutlivesItsBody(t *testing.T) {
	plain, scribbled := NewTestServer(t, 33, 0).Handler(false), NewTestServer(t, 33, 0).Handler(false)
	for r := 0; r < 8; r++ { // under -race, Put drops one writer in four
		x := 0.1 * float64(r%4)
		patch := fmt.Sprintf("/patch?level=1&ix=%d&iy=0&band=1", r%2)
		for _, p := range []string{
			fmt.Sprintf("/tile?x0=%g&y0=0.1&x1=%g&y1=0.7&lod=0.6", x, x+0.5),
			fmt.Sprintf("/frame?session=cam&x0=%g&y0=0.2&x1=%g&y1=0.6&near=0.3&far=0.8", x, x+0.4),
			patch, patch, // a pooled memoized body is the second one's scribbled buffer
		} {
			want, got := httptest.NewRecorder(), httptest.NewRecorder()
			plain.ServeHTTP(want, httptest.NewRequest(http.MethodGet, p, nil))
			scribbled.ServeHTTP(scribbler{got}, httptest.NewRequest(http.MethodGet, p, nil))
			if want.Code != http.StatusOK || got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("GET %s: status %d, want %d; body differs: %t", p, got.Code, want.Code,
					!bytes.Equal(got.Body.Bytes(), want.Body.Bytes()))
			}
		}
	}
}
