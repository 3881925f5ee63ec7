package server

import (
	"errors"
	"net/http"
	"strconv"
	"sync"

	"cacheuniformity/internal/cache"
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
//   - the result without PerSet, the reply rendering the store serves
//     with every result it stores (resultstore.Served): made once when
//     the cell is computed or peer-filled, with its manifest, or read
//     from the manifest on a disk hit, and kept with the memory entry,
//     so no reply encodes the result;
//   - for include_per_set, the three per-set arrays written straight from
//     their []uint64 slices by resultstore.AppendResult at their sorted
//     key position, as in a manifest.  They are never cached: at 1024
//     sets they are 35 KB per entry.

// cellResponseKeys is cellResponse's json keys in the order
// appendCellResponse writes them: sorted, as canonical JSON orders them.
var cellResponseKeys = [...]string{
	"benchmark", "benchmark_decl", "elapsed_ns", "key", "origin", "result", "scheme", "scheme_decl",
}

// errNoRendering fails the reply of a result the canonical codec cannot
// encode (a non-finite value): the store holds no rendering for it.
var errNoRendering = errors.New("server: result has no JSON rendering")

// replyBufs pools reply buffers; one holds a whole body, up to ~35 KB
// for a 1024-set reply with per-set counts.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledReply keeps outsized buffers (per-set replies of very large
// layouts) from pinning memory in the pool.
const maxPooledReply = 1 << 20

// replyCell writes the reply for a computed, cached, inflight or
// peer-served cell.
func (s *Server) replyCell(w http.ResponseWriter, req *cellRequest, id *cellID, served resultstore.Served, elapsedNs int64) {
	if served.Rendering == nil {
		s.fail(w, http.StatusInternalServerError, errNoRendering)
		return
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
	}, served.Rendering, ps)
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

// appendCellResponse appends the whole reply body: the envelope fields
// of c in cellResponseKeys order, with result (the result's reply
// rendering, in place of c.Result) as the "result" value and ps, when
// non-nil, spliced into it.  c's declarations are canonical JSON.
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
			b, err = report.AppendIndented(b, c.BenchmarkDecl)
		case "elapsed_ns":
			b = strconv.AppendInt(b, c.ElapsedNs, 10)
		case "key":
			b, err = report.AppendString(b, c.Key)
		case "origin":
			b, err = report.AppendString(b, string(c.Origin))
		case "result":
			b, err = resultstore.AppendResult(b, result, ps)
		case "scheme":
			b, err = report.AppendString(b, c.Scheme)
		case "scheme_decl":
			b, err = report.AppendIndented(b, c.SchemeDecl)
		}
		if err != nil {
			return nil, err
		}
	}
	return append(b, "\n}\n"...), nil
}
