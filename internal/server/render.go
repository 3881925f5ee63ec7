package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"

	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/core"
	"cacheuniformity/internal/report"
	"cacheuniformity/internal/resultstore"
)

// The /v1/cell reply, written without re-encoding the result.  The body
// is byte-identical to report.CanonicalJSONIndent(cellResponse{...}, "  ")
// plus a newline, the form every other endpoint writes through reply,
// but it is assembled from three parts:
//
//   - the envelope's small values under keys written in cellResponseKeys
//     order (canonical JSON sorts keys bytewise): strings through the
//     JSON encoder, whose escaping is part of the bytes; elapsed_ns
//     through strconv; the two declarations from the canonical JSON the
//     store key was derived from, indented at depth 1;
//   - the result without PerSet, kept in the resultstore.Rendering slot
//     of the memory-tier entry that holds the result, so a hit writes
//     bytes instead of encoding the result again: a disk hit's slot
//     comes filled from its manifest, any other is filled by
//     renderResult on the entry's first reply; results that no slot
//     holds are rendered per reply;
//   - for include_per_set, the three per-set arrays written straight from
//     their []uint64 slices by appendPerSet at their sorted key position.
//     They are never cached: at 1024 sets they are 35 KB per entry.

// cellResponseKeys is cellResponse's json keys in the order
// appendCellResponse writes them: sorted, as canonical JSON orders them.
var cellResponseKeys = [...]string{
	"benchmark", "benchmark_decl", "elapsed_ns", "key", "origin", "result", "scheme", "scheme_decl",
}

// Indentation of the nested levels of a cell reply: result fields sit at
// depth 2, PerSet's keys at depth 3 and its array elements at depth 4.
const (
	depth2 = "    "
	depth3 = depth2 + "  "
	depth4 = depth3 + "  "
)

// schemeKeyLine opens the result's last field ("Scheme"); PerSet sorts
// just before it.  A JSON string holds no raw newline, so the last match
// in a rendering is the top-level key.
var schemeKeyLine = []byte("\n" + depth2 + `"Scheme": `)

// replyBufs pools reply buffers; one holds a whole body, up to ~35 KB
// for a 1024-set reply with per-set counts.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledReply keeps outsized buffers (per-set replies of very large
// layouts) from pinning memory in the pool.
const maxPooledReply = 1 << 20

// replyCell writes the reply for a computed, cached, inflight or
// peer-served cell.
func (s *Server) replyCell(w http.ResponseWriter, req *cellRequest, id *cellID, served resultstore.Served, elapsedNs int64) {
	result := served.Rendering.Load()
	if result == nil {
		var err error
		if result, err = renderResult(served.Result); err != nil {
			s.fail(w, http.StatusInternalServerError, err)
			return
		}
		served.Rendering.Store(result)
	}
	var ps *cache.PerSet
	if req.IncludePerSet {
		ps = &served.Result.PerSet
	}
	buf := replyBufs.Get().(*[]byte)
	b, err := appendCellResponse((*buf)[:0], &cellResponse{
		Scheme:        id.Scheme.Name,
		Benchmark:     id.Spec.Name,
		SchemeDecl:    id.SchemeJSON,
		BenchmarkDecl: id.BenchJSON,
		Key:           id.key,
		Origin:        served.Origin,
		ElapsedNs:     elapsedNs,
	}, result, ps)
	if err != nil {
		replyBufs.Put(buf)
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(b)
	if cap(b) <= maxPooledReply {
		*buf = b
		replyBufs.Put(buf)
	}
}

// renderResult renders res in the format resultstore.Rendering states:
// the canonical JSON of res without PerSet, indented as it sits inside
// the envelope.
func renderResult(res core.Result) ([]byte, error) {
	body, err := toResultJSON(res, false)
	if err != nil {
		return nil, err
	}
	compact, err := report.CanonicalJSON(body)
	if err != nil {
		return nil, err
	}
	return appendIndented(nil, compact)
}

// appendIndented appends compact JSON indented at depth 1.
func appendIndented(b, compact []byte) ([]byte, error) {
	buf := bytes.NewBuffer(b)
	if err := json.Indent(buf, compact, "  ", "  "); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// appendCellResponse appends the whole reply body: the envelope fields
// of c in cellResponseKeys order, with result (a renderResult rendering,
// in place of c.Result) as the "result" value and ps, when non-nil,
// spliced into it.  c's declarations are canonical JSON.
func appendCellResponse(b []byte, c *cellResponse, result []byte, ps *cache.PerSet) ([]byte, error) {
	b = append(b, '{')
	for i, k := range cellResponseKeys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n  \""...)
		b = append(b, k...)
		b = append(b, "\": "...)
		var err error
		switch k {
		case "benchmark":
			b, err = report.AppendString(b, c.Benchmark)
		case "benchmark_decl":
			b, err = appendIndented(b, c.BenchmarkDecl)
		case "elapsed_ns":
			b = strconv.AppendInt(b, c.ElapsedNs, 10)
		case "key":
			b, err = report.AppendString(b, c.Key)
		case "origin":
			b, err = report.AppendString(b, string(c.Origin))
		case "result":
			b, err = appendResult(b, result, ps)
		case "scheme":
			b, err = report.AppendString(b, c.Scheme)
		case "scheme_decl":
			b, err = appendIndented(b, c.SchemeDecl)
		}
		if err != nil {
			return nil, err
		}
	}
	return append(b, "\n}\n"...), nil
}

// appendResult appends a result rendering, with ps's arrays as its
// "PerSet" field when ps is non-nil.
func appendResult(b, result []byte, ps *cache.PerSet) ([]byte, error) {
	if ps == nil {
		return append(b, result...), nil
	}
	i := bytes.LastIndex(result, schemeKeyLine)
	if i < 0 {
		return nil, errors.New("server: result rendering has no Scheme field")
	}
	b = append(b, result[:i+1]...)
	b = append(b, depth2+`"PerSet": `...)
	b = appendPerSet(b, ps)
	b = append(b, ',')
	return append(b, result[i:]...), nil
}

// appendPerSet appends ps as canonical JSON indented for depth 2, the
// form report.CanonicalJSONIndent gives it inside a cell reply: the
// canonical form of an integer array is its decimal digits, so writing
// the slices directly is exact.
//
//lint:hotpath every include_per_set reply writes ~3k integers through here
func appendPerSet(b []byte, ps *cache.PerSet) []byte {
	b = append(b, "{\n"+depth3+`"Accesses": `...)
	b = appendCounts(b, ps.Accesses)
	b = append(b, ",\n"+depth3+`"Hits": `...)
	b = appendCounts(b, ps.Hits)
	b = append(b, ",\n"+depth3+`"Misses": `...)
	b = appendCounts(b, ps.Misses)
	return append(b, "\n"+depth2+"}"...)
}

// appendCounts appends one per-set array at depth 3: null for a nil
// slice, [] for an empty one, else one element per line.
//
//lint:hotpath every include_per_set reply writes ~3k integers through here
func appendCounts(b []byte, v []uint64) []byte {
	switch {
	case v == nil:
		return append(b, "null"...)
	case len(v) == 0:
		return append(b, "[]"...)
	}
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n"+depth4...)
		b = strconv.AppendUint(b, x, 10)
	}
	return append(b, "\n"+depth3+"]"...)
}
