package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Canonical JSON: the deterministic encoding the result store hashes and
// the CLIs emit.  Two values that are semantically equal must encode to
// identical bytes, independent of map insertion order, struct field
// declaration order, or the float formatting heuristics of the Go version
// in use.  The rules:
//
//   - object keys (map keys and struct field names alike) are sorted
//     bytewise ascending;
//   - numbers use a fixed format: integer literals pass through verbatim,
//     everything else is re-rendered as the shortest decimal that parses
//     back to the same float64 (strconv 'g', precision -1);
//   - no insignificant whitespace;
//   - NaN and the infinities are rejected with an error, never silently
//     encoded (JSON cannot represent them and a lossy substitute would
//     poison a content-addressed key).
//
// The input passes through encoding/json first, so struct tags, Marshaler
// implementations and string escaping behave exactly as callers expect.

// CanonicalJSON encodes v as canonical JSON.
func CanonicalJSON(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("report: canonical json: %w", err)
	}
	var tree any
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err = dec.Decode(&tree); err != nil {
		return nil, fmt.Errorf("report: canonical json: %w", err)
	}
	out, err := appendCanonical(nil, tree)
	if err != nil {
		return nil, fmt.Errorf("report: canonical json: %w", err)
	}
	return out, nil
}

// CanonicalJSONIndent is CanonicalJSON re-indented for human readers (the
// CLI output form); the canonical compact form plus insignificant
// whitespace, so the two differ only in layout.
func CanonicalJSONIndent(v any, indent string) ([]byte, error) {
	compact, err := CanonicalJSON(v)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, compact, "", indent); err != nil {
		return nil, fmt.Errorf("report: canonical json: %w", err)
	}
	return buf.Bytes(), nil
}

// appendCanonical renders one decoded JSON value onto b.
func appendCanonical(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, "null"...), nil
	case bool:
		return strconv.AppendBool(b, x), nil
	case string:
		// json.Marshal of a string is deterministic (fixed escaping rules).
		s, err := json.Marshal(x)
		if err != nil {
			return nil, err
		}
		return append(b, s...), nil
	case json.Number:
		return appendCanonicalNumber(b, x.String())
	case []any:
		b = append(b, '[')
		for i, e := range x {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			b, err = appendCanonical(b, e)
			if err != nil {
				return nil, err
			}
		}
		return append(b, ']'), nil
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b = append(b, '{')
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			s, err := json.Marshal(k)
			if err != nil {
				return nil, err
			}
			b = append(b, s...)
			b = append(b, ':')
			b, err = appendCanonical(b, x[k])
			if err != nil {
				return nil, err
			}
		}
		return append(b, '}'), nil
	default:
		return nil, fmt.Errorf("unsupported value %T", v)
	}
}

// appendCanonicalNumber fixes the number format of the JSON number
// literal s.  Integer literals (no fraction, no exponent) are already
// canonical as produced by encoding/json and pass through; anything else
// re-renders via the shortest-round-trip float format so "1e2", "100.0"
// and "100" written by different producers all canonicalise identically.
func appendCanonicalNumber(b []byte, s string) ([]byte, error) {
	if !strings.ContainsAny(s, ".eE") {
		return append(b, s...), nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return nil, err
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, fmt.Errorf("non-finite number %q", s)
	}
	out := strconv.AppendFloat(b, f, 'g', -1, 64)
	// A float that renders without fraction or exponent ("100") must not
	// collide with the integer spelling of a different producer — it IS the
	// integer spelling, which is exactly the collapse we want.
	return out, nil
}

// AppendIndented appends compact JSON as CanonicalJSONIndent(v, "  ")
// lays it out for a member value of the top-level object: indented by
// json.Indent with prefix and indent "  ".  Callers that write indented
// canonical JSON by hand use it for the values they splice in.
func AppendIndented(b, compact []byte) ([]byte, error) {
	buf := bytes.NewBuffer(b)
	if err := json.Indent(buf, compact, "  ", "  "); err != nil {
		return nil, fmt.Errorf("report: canonical json: %w", err)
	}
	return buf.Bytes(), nil
}

// AppendString appends s as CanonicalJSON renders a string: through
// encoding/json, whose escaping ("<" becomes \u003c) is part of the
// bytes.  encoding/json writes each byte of invalid UTF-8 as \ufffd,
// which the canonical round trip turns into the character itself, so
// such a string takes the codec's own path.
func AppendString(b []byte, s string) ([]byte, error) {
	var q []byte
	var err error
	if utf8.ValidString(s) {
		q, err = json.Marshal(s)
	} else {
		q, err = CanonicalJSON(s)
	}
	if err != nil {
		return nil, err
	}
	return append(b, q...), nil
}

// AppendFloat appends f as CanonicalJSON renders a float64 field: the
// literal encoding/json writes for f, put through the same number rule.
// Callers that write canonical JSON by hand use it so their bytes cannot
// drift from the codec's.
func AppendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, fmt.Errorf("report: canonical json: non-finite number %v", f)
	}
	// encoding/json writes a float64 in 'f' form when 1e-6 <= |f| < 1e21
	// (and for zero), in exponent form otherwise.
	format := byte('f')
	if a := math.Abs(f); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	var lit [32]byte
	return appendCanonicalNumber(b, string(strconv.AppendFloat(lit[:0], f, format, -1, 64)))
}
