package report

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestCanonicalJSONSortsMapKeys(t *testing.T) {
	// Map iteration order is randomised per run; the canonical encoding
	// must not depend on it.  Encode many times and compare.
	m := map[string]int{"zebra": 1, "alpha": 2, "mid": 3, "b": 4, "a": 5}
	want := `{"a":5,"alpha":2,"b":4,"mid":3,"zebra":1}`
	for i := 0; i < 50; i++ {
		got, err := CanonicalJSON(m)
		if err != nil {
			t.Fatalf("CanonicalJSON: %v", err)
		}
		if string(got) != want {
			t.Fatalf("encoding %d: got %s, want %s", i, got, want)
		}
	}
}

func TestCanonicalJSONSortsStructFields(t *testing.T) {
	// Two structs with the same fields in different declaration order must
	// encode identically: the store key survives field reordering.
	type a struct {
		Z int    `json:"z"`
		A string `json:"a"`
	}
	type b struct {
		A string `json:"a"`
		Z int    `json:"z"`
	}
	ea, err := CanonicalJSON(a{Z: 7, A: "x"})
	if err != nil {
		t.Fatal(err)
	}
	eb, err := CanonicalJSON(b{A: "x", Z: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea, eb) {
		t.Fatalf("field order leaked: %s vs %s", ea, eb)
	}
	if want := `{"a":"x","z":7}`; string(ea) != want {
		t.Fatalf("got %s, want %s", ea, want)
	}
}

func TestCanonicalJSONNumberFormats(t *testing.T) {
	cases := []struct {
		in   string // raw JSON
		want string
	}{
		{`100`, `100`},
		{`100.0`, `100`},
		{`1e2`, `100`},
		{`0.5`, `0.5`},
		{`5e-1`, `0.5`},
		{`-0.25`, `-0.25`},
		{`18446744073709551615`, `18446744073709551615`}, // uint64 max: no float round-trip
		{`0.1`, `0.1`},
		{`1e21`, `1e+21`},
	}
	for _, c := range cases {
		var v any
		dec := json.NewDecoder(strings.NewReader(c.in))
		dec.UseNumber()
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("decode %q: %v", c.in, err)
		}
		got, err := CanonicalJSON(v)
		if err != nil {
			t.Fatalf("CanonicalJSON(%q): %v", c.in, err)
		}
		if string(got) != c.want {
			t.Errorf("CanonicalJSON(%q) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestCanonicalJSONNestedAndRoundTrip(t *testing.T) {
	type inner struct {
		Vals []float64         `json:"vals"`
		Tags map[string]string `json:"tags,omitempty"`
	}
	type outer struct {
		Name  string  `json:"name"`
		Ratio float64 `json:"ratio"`
		In    inner   `json:"in"`
		Null  *int    `json:"null"`
	}
	v := outer{
		Name:  "grid \"quoted\" / unicode é",
		Ratio: 0.30000000000000004, // classic non-terminating binary fraction
		In:    inner{Vals: []float64{1, 2.5, 3e10}, Tags: map[string]string{"b": "2", "a": "1"}},
	}
	got, err := CanonicalJSON(v)
	if err != nil {
		t.Fatal(err)
	}
	// Canonical output must round-trip: decode and re-canonicalise to the
	// identical bytes (idempotence), and decode back to equal values.
	var back outer
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatalf("unmarshal canonical output: %v", err)
	}
	if back.Ratio != v.Ratio {
		t.Fatalf("float round-trip lost precision: %v != %v", back.Ratio, v.Ratio)
	}
	again, err := CanonicalJSON(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, again) {
		t.Fatalf("not idempotent:\n%s\n%s", got, again)
	}
}

func TestCanonicalJSONRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := CanonicalJSON(v); err == nil {
			t.Errorf("CanonicalJSON(%v): want error, got nil", v)
		}
	}
}

func TestCanonicalJSONIndentMatchesCompact(t *testing.T) {
	v := map[string]any{"b": []int{1, 2}, "a": "x"}
	compact, err := CanonicalJSON(v)
	if err != nil {
		t.Fatal(err)
	}
	indented, err := CanonicalJSONIndent(v, "  ")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, indented); err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(compact) {
		t.Fatalf("indent changed content:\n%s\n%s", buf.String(), compact)
	}
}

// TestAppendIndentedMatchesMember: a value appended by AppendIndented
// after its key is byte for byte that member in CanonicalJSONIndent of
// the enclosing object.
func TestAppendIndentedMatchesMember(t *testing.T) {
	inner := map[string]any{"b": []int{1, 2}, "a": map[string]any{"x": "<&>", "y": []int{}}, "c": 1.5}
	want, err := CanonicalJSONIndent(map[string]any{"k": inner}, "  ")
	if err != nil {
		t.Fatal(err)
	}
	compact, err := CanonicalJSON(inner)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AppendIndented([]byte("{\n  \"k\": "), compact)
	if err != nil {
		t.Fatal(err)
	}
	if got = append(got, "\n}"...); !bytes.Equal(got, want) {
		t.Fatalf("AppendIndented gave\n%s\nwant\n%s", got, want)
	}
	if _, err := AppendIndented(nil, []byte("{")); err == nil {
		t.Fatal("AppendIndented accepted invalid JSON")
	}
}
