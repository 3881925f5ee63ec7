package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/core"
	"cacheuniformity/internal/resultstore"
)

// oracleDecodePeerCell is the reference peer-body decoder, the one
// decodePeerCell used before its one-pass read: json.Unmarshal of the
// whole body, then resultstore.ParsePerSet of the per-set object.
func oracleDecodePeerCell(data []byte, key, schemeName, benchName string) (core.Result, error) {
	var pr peerCellReply[json.RawMessage]
	if err := json.Unmarshal(data, &pr); err != nil {
		return core.Result{}, fmt.Errorf("server: peer body: %w", err)
	}
	if pr.Key != key {
		return core.Result{}, fmt.Errorf("server: peer answered key %.16s…, want %.16s…", pr.Key, key)
	}
	if pr.Result.Err != "" {
		return core.Result{}, fmt.Errorf("server: peer result carries error %q", pr.Result.Err)
	}
	res := pr.Result.Result
	if res.Scheme != schemeName || res.Benchmark != benchName {
		return core.Result{}, fmt.Errorf("server: peer result names %s/%s, want %s/%s",
			res.Scheme, res.Benchmark, schemeName, benchName)
	}
	if len(pr.Result.PerSet) > 0 {
		ps, err := resultstore.ParsePerSet(pr.Result.PerSet)
		if err != nil {
			return core.Result{}, fmt.Errorf("server: peer PerSet: %w", err)
		}
		res.PerSet = ps
	}
	return res, nil
}

// FuzzDecodePeerCell holds decodePeerCell to oracleDecodePeerCell: both
// accept and reject the same bodies and give deeply equal results.  A
// peer body comes off the network, so any byte sequence is possible; the
// seeds after the plain replies probe the one-pass read's layout match.
func FuzzDecodePeerCell(f *testing.F) {
	res := core.Result{Benchmark: "crc", Scheme: "xor", MissRate: 0.25, AMAT: 5.75,
		PerSet: randomPerSet(rand.New(rand.NewPCG(7, 8)), 64)}
	body := peerReplyBody(f, res)
	f.Add(body)
	f.Add(body[:len(body)/2]) // torn
	f.Add([]byte{})
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	small := res
	small.PerSet = cache.PerSet{Accesses: []uint64{1}, Hits: []uint64{}, Misses: nil}
	f.Add(peerReplyBody(f, small))
	var compact bytes.Buffer
	if err := json.Compact(&compact, body); err != nil {
		f.Fatal(err)
	}
	f.Add(compact.Bytes())
	noPerSet, err := appendCellResponse(nil, &cellResponse{
		Scheme: "xor", Benchmark: "crc", Key: "k", SchemeDecl: []byte(`"xor"`), BenchmarkDecl: []byte(`"crc"`),
	}, oracleRendering(f, res), nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(noPerSet)
	edit := func(old, new string) {
		if !bytes.Contains(body, []byte(old)) {
			f.Fatalf("seed body lacks %q", old)
		}
		f.Add(bytes.Replace(body, []byte(old), []byte(new), 1))
	}
	// Identity mismatches and a carried error.
	edit(`"key": "k"`, `"key": "other"`)
	edit(`"Scheme": "xor"`, `"Scheme": "crc"`)
	edit(`"result": {`, `"result": {"Err": "boom",`)
	// A second PerSet key before and after the first, and a
	// case-insensitive match.
	edit(`"result": {`, `"result": {"PerSet": {"Accesses": [5, 6], "Hits": [7]},`)
	edit("\n    \"Scheme\": \"xor\"", "\n    \"perset\": {\"Hits\": [1]},\n    \"Scheme\": \"xor\"")
	// A per-set object in the reply's layout under benchmark_decl, ahead
	// of result's; then with the sentinel in place of result's.
	const declPerSet = "\n    \"PerSet\": {\n      \"Accesses\": [\n        1\n      ],\n      \"Hits\": [],\n      \"Misses\": null\n    },"
	edit(`"benchmark_decl": {`, `"benchmark_decl": {`+declPerSet)
	sentinel := bytes.Replace(body, []byte(`"benchmark_decl": {`), []byte(`"benchmark_decl": {`+declPerSet), 1)
	at := bytes.LastIndex(sentinel, []byte("\n    \"PerSet\": {"))
	end := at + bytes.Index(sentinel[at:], []byte("\n    },")) + len("\n    }")
	f.Add(append(append(append([]byte{}, sentinel[:at]...), "\n    \"PerSet\": \"\\u0000\""...), sentinel[end:]...))
	// The sentinel as a name.
	edit(`"origin": "memory"`, `"origin": "\u0000"`)
	// An unknown key in place of a per-set array's, and bad elements.
	edit(`"Hits": [`, `"Hitz": [`)
	for _, bad := range []string{"-1", "1.5", "null", "01", "18446744073709551616"} {
		edit("\"Accesses\": [\n        ", "\"Accesses\": [\n        "+bad+",\n        ")
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, gerr := decodePeerCell(data, "k", "xor", "crc")
		want, werr := oracleDecodePeerCell(data, "k", "xor", "crc")
		if (gerr != nil) != (werr != nil) {
			t.Fatalf("decodePeerCell error %v, oracle error %v", gerr, werr)
		}
		if werr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decodePeerCell %+v\noracle %+v", got, want)
		}
	})
}
