package serve

import (
	"cmp"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"sync"

	"dmesh"
)

// meshBody writes the /tile and /frame bodies straight into a byte
// slice, byte for byte what encoding/json's Marshal (plus a newline) made
// of the structs these endpoints used to answer through — which the
// tests keep and compare against — without re-keying every vertex into a
// map[string] and walking it by reflection:
//
//	/tile:  {"lod",<mesh>,"disk_accesses"}
//	/frame: {"session","full","retained","fetched","evicted",<mesh>,"disk_accesses"}
//	<mesh>: "vertices":{"<id>":[x,y,z],...},"triangles":[[a,b,c],...]
//
// The vertex keys follow encoding/json's map order: the byte order of the
// decimal strings ("10" before "9", negative IDs first).
type meshBody struct {
	b    []byte
	keys []vertexKey // the vertex-order scratch
	err  error       // the first float with no JSON form
}

// meshBodies recycles writers across requests: a body's bytes and key
// scratch go back only after the body is written out. A writer keeps the
// largest buffer it has grown to, so one outsized answer's buffer serves
// the small ones after it until the GC empties the pool (two cycles).
// That retention is accepted: dropping a writer whose buffer was over 4×
// its body gave up most of what the pool saves on churn_tile, whose tile
// bodies differ that much from one request to the next.
var meshBodies = sync.Pool{New: func() any { return new(meshBody) }}

// tile writes /tile's body.
func (m *meshBody) tile(lod float64, res *dmesh.Result, da uint64) ([]byte, error) {
	m.reset(res, 0)
	m.b = append(m.b, `{"lod":`...)
	m.float(lod)
	return m.finish(res, da)
}

// frame writes /frame's body.
func (m *meshBody) frame(session string, st dmesh.FrameStats, res *dmesh.Result) ([]byte, error) {
	m.reset(res, len(session))
	m.b = append(m.b, `{"session":`...)
	m.b = appendJSONString(m.b, session)
	m.b = append(m.b, `,"full":`...)
	m.b = strconv.AppendBool(m.b, st.Full)
	m.b = append(m.b, `,"retained":`...)
	m.b = strconv.AppendInt(m.b, int64(st.Retained), 10)
	m.b = append(m.b, `,"fetched":`...)
	m.b = strconv.AppendInt(m.b, int64(st.Fetched), 10)
	m.b = append(m.b, `,"evicted":`...)
	m.b = strconv.AppendInt(m.b, int64(st.Evicted), 10)
	return m.finish(res, st.DA)
}

// reset empties the writer and makes room for a body whose session name
// is nameLen bytes: a vertex of a unit-square terrain takes up to ~70
// bytes, a triangle ~20, and a name at most 6 bytes a byte once escaped.
func (m *meshBody) reset(res *dmesh.Result, nameLen int) {
	m.b, m.keys, m.err = m.b[:0], m.keys[:0], nil
	if need := 160 + 6*nameLen + 72*len(res.Vertices) + 24*len(res.Triangles); cap(m.b) < need {
		m.b = make([]byte, 0, need)
	}
	if cap(m.keys) < len(res.Vertices) {
		m.keys = make([]vertexKey, 0, len(res.Vertices))
	}
}

// finish writes the mesh and disk_accesses, closing the object.
func (m *meshBody) finish(res *dmesh.Result, da uint64) ([]byte, error) {
	for id := range res.Vertices {
		m.keys = append(m.keys, keyOf(id))
	}
	slices.SortFunc(m.keys, compareKeys)
	m.b = append(m.b, `,"vertices":{`...)
	for i, k := range m.keys {
		if i > 0 {
			m.b = append(m.b, ',')
		}
		p := res.Vertices[k.id]
		m.b = append(m.b, '"')
		m.b = strconv.AppendInt(m.b, k.id, 10)
		m.b = append(m.b, `":[`...)
		m.float(p.X)
		m.b = append(m.b, ',')
		m.float(p.Y)
		m.b = append(m.b, ',')
		m.float(p.Z)
		m.b = append(m.b, ']')
	}
	m.b = append(m.b, `},"triangles":[`...)
	for i, t := range res.Triangles {
		if i > 0 {
			m.b = append(m.b, ',')
		}
		m.b = append(m.b, '[')
		m.b = strconv.AppendInt(m.b, t.A, 10)
		m.b = append(m.b, ',')
		m.b = strconv.AppendInt(m.b, t.B, 10)
		m.b = append(m.b, ',')
		m.b = strconv.AppendInt(m.b, t.C, 10)
		m.b = append(m.b, ']')
	}
	m.b = append(m.b, `],"disk_accesses":`...)
	m.b = strconv.AppendUint(m.b, da, 10)
	m.b = append(m.b, "}\n"...)
	if m.err != nil {
		return nil, m.err
	}
	return m.b, nil
}

// float appends f in encoding/json's form: the shortest 'f' that parses
// back to f, or 'e' below 1e-6 and from 1e21 on in magnitude, with a
// one-digit negative exponent unpadded. NaN and the infinities have no
// JSON form; the first one met is the body's error, with
// json.Marshal's message.
func (m *meshBody) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if m.err == nil {
			m.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	abs, format := math.Abs(f), byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	m.b = strconv.AppendFloat(m.b, f, format, -1, 64)
	if n := len(m.b); format == 'e' && m.b[n-4] == 'e' && m.b[n-3] == '-' && m.b[n-2] == '0' {
		m.b[n-2] = m.b[n-1] // e-07 -> e-7
		m.b = m.b[:n-1]
	}
}

// appendJSONString appends s quoted as json.Marshal quotes it. Printable
// ASCII other than the five characters it escapes is copied as it is;
// any other name — control bytes, invalid UTF-8, U+2028/9 — goes
// through json.Marshal itself.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// vertexKey sorts a vertex ID by its decimal string without formatting
// it: pad is |id|'s digits right-padded with zeros to 19, the width of
// the largest magnitude.
type vertexKey struct {
	pad uint64
	id  int64
}

func keyOf(id int64) vertexKey {
	pad := uint64(id)
	if id < 0 {
		pad = -pad
	}
	for pad != 0 && pad < 1e18 {
		pad *= 10
	}
	return vertexKey{pad, id}
}

// compareKeys is the byte order of the IDs' decimal strings. '-' sorts
// before every digit, so negatives come first. Equal padding means one
// string is the other plus trailing zeros, and the shorter one — the
// smaller magnitude — comes first.
func compareKeys(a, b vertexKey) int {
	if an, bn := a.id < 0, b.id < 0; an != bn {
		if an {
			return -1
		}
		return 1
	}
	if c := cmp.Compare(a.pad, b.pad); c != 0 {
		return c
	}
	if a.id < 0 {
		return cmp.Compare(b.id, a.id)
	}
	return cmp.Compare(a.id, b.id)
}
