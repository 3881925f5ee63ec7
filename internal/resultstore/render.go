package resultstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"strconv"

	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/core"
	"cacheuniformity/internal/report"
)

// The layout a stored result shares between its manifest and a /v1/cell
// reply.  In both the result is the value of a depth-1 key of a document
// that report.CanonicalJSONIndent(v, "  ") would write: its members sit
// at depth 2, PerSet's keys at depth 3 and its array elements at depth
// 4.  The result's reply rendering (see lruEntry.render) is that value
// without PerSet; AppendResult splices the per-set arrays back in, so the
// manifest writer and the reply writer share one writer of the layout
// the one-pass readers (unmarshalCut) match.
const (
	depth2 = "    "
	depth3 = depth2 + "  "
	depth4 = depth3 + "  "
)

// perSetKey opens result's PerSet member.  The match starts at the raw
// newline before the key; a JSON string holds no raw newline, so the
// match cannot start inside a string.
const perSetKey = "\n" + depth2 + `"PerSet": `

// perSetSeps are the bytes around the three per-set arrays: PerSet's key
// and Accesses', Hits', Misses', and the object's close with the comma
// before the result's last member, Scheme (PerSet sorts just before it).
var perSetSeps = [...][]byte{
	[]byte(perSetKey + "{\n" + depth3 + `"Accesses": `),
	[]byte(",\n" + depth3 + `"Hits": `),
	[]byte(",\n" + depth3 + `"Misses": `),
	[]byte("\n" + depth2 + "},"),
}

// schemeKeyLine opens the result's last member ("Scheme").  The last
// match in a rendering is the result's own key.
var schemeKeyLine = []byte("\n" + depth2 + `"Scheme": `)

// resultHead is a successful core.Result as its rendering encodes it:
// every field but Err, which is nil, and PerSet, which AppendResult
// writes.  The shadow fields suppress the embedded ones.
type resultHead struct {
	core.Result
	Err    json.RawMessage `json:",omitempty"`
	PerSet json.RawMessage `json:",omitempty"`
}

// renderResult renders a successful res as its reply rendering: the
// canonical JSON of res without PerSet, indented by json.Indent with
// prefix and indent "  ".  A non-finite value is an error, as it is for
// report.CanonicalJSON.
func renderResult(res core.Result) ([]byte, error) {
	compact, err := report.CanonicalJSON(resultHead{Result: res})
	if err != nil {
		return nil, err
	}
	return report.AppendIndented(nil, compact)
}

// AppendResult appends a result's reply rendering, with ps's arrays as
// its "PerSet" member when ps is non-nil: byte for byte the result's
// value in report.CanonicalJSONIndent(v, "  ") of a document that holds
// the result, PerSet included, under a top-level key.  The canonical
// form of an integer array is its decimal digits, so writing the slices
// directly is exact.
func AppendResult(b, rendering []byte, ps *cache.PerSet) ([]byte, error) {
	if ps == nil {
		return append(b, rendering...), nil
	}
	i := bytes.LastIndex(rendering, schemeKeyLine)
	if i < 0 {
		return nil, errors.New("resultstore: result rendering has no Scheme member")
	}
	b = append(b, rendering[:i]...)
	b = appendPerSet(b, ps)
	return append(b, rendering[i:]...), nil
}

// appendPerSet appends result's PerSet member, from the newline before
// its key to the comma after its object.
//
//lint:hotpath every manifest and include_per_set reply writes ~3k integers through here
func appendPerSet(b []byte, ps *cache.PerSet) []byte {
	b = append(b, perSetSeps[0]...)
	b = appendCounts(b, ps.Accesses)
	b = append(b, perSetSeps[1]...)
	b = appendCounts(b, ps.Hits)
	b = append(b, perSetSeps[2]...)
	b = appendCounts(b, ps.Misses)
	return append(b, perSetSeps[3]...)
}

// appendCounts appends one per-set array at depth 3: null for a nil
// slice, [] for an empty one, else one element per line.
//
//lint:hotpath every manifest and include_per_set reply writes ~3k integers through here
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
