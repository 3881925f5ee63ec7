package resultstore

import (
	"encoding/json"
	"reflect"
	"testing"

	"cacheuniformity/internal/core"
	"cacheuniformity/internal/report"
)

// fuzzKey/fuzzVersion fix the (key, version) pair the fuzzed bytes are
// decoded against, mirroring a store that found the bytes at that path.
const fuzzVersion = "fuzz"

func fuzzSeedManifest(tb testing.TB) (string, []byte) {
	tb.Helper()
	cfg := core.Default().Canonical()
	key, err := cellKey(cfg, "xor", "crc", fuzzVersion)
	if err != nil {
		tb.Fatal(err)
	}
	m := manifest{
		Key:       key,
		Version:   fuzzVersion,
		Scheme:    "xor",
		Benchmark: "crc",
		Config:    cfg,
		Result: storedResult{Result: core.Result{
			Benchmark: "crc", Scheme: "xor", MissRate: 0.25, AMAT: 6,
		}},
	}
	data, err := report.CanonicalJSONIndent(m, "  ")
	if err != nil {
		tb.Fatal(err)
	}
	return key, data
}

// FuzzManifestDecode asserts the crash-tolerance contract of the on-disk
// tier: decodeManifest must never panic, and anything it accepts must
// actually belong to the key and version it was found under.  This is
// the store's equivalent of PR 3's corruption fuzzers — the input is a
// file on disk, so any byte sequence is possible.
func FuzzManifestDecode(f *testing.F) {
	key, valid := fuzzSeedManifest(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // torn write
	f.Add([]byte{})
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"key":"` + key + `","version":"fuzz"}`))
	f.Add([]byte(`{"key":"0000","version":"fuzz","scheme":"xor","benchmark":"crc","result":{}}`))
	f.Add([]byte("\x00\xff garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := decodeManifest(data, key, fuzzVersion)
		if err != nil {
			return // rejected bytes are a miss; nothing more to hold
		}
		// Accepted bytes must be internally consistent with the address
		// they were found at: decodeManifest cross-checks the manifest's
		// names against the embedded result.
		if res.Scheme == "" || res.Benchmark == "" {
			t.Fatalf("accepted manifest with empty identity: %+v", res)
		}
	})
}

// FuzzManifestCounts holds parseCounts to json.Unmarshal into a fresh
// []uint64: the same inputs accepted, the same values, nil for nil.
func FuzzManifestCounts(f *testing.F) {
	for _, seed := range []string{
		`null`, `[]`, ` [ ] `, "\t[\n1 ,\r2\n]\n", `[1,null,2]`, `[0]`, `[18446744073709551615]`,
		`18446744073709551616`, `[18446744073709551616]`, `[-0]`, `[1e3]`, `[1.0]`, `[01]`,
		`[1,]`, `[,1]`, `[1 2]`, `[-]`, `[-1]`, `["1"]`, `[true]`, `[[1]]`, `{}`, `1`, `nul`, `[null`, `[1]x`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want []uint64
		werr := json.Unmarshal(data, &want)
		got, gerr := parseCounts(data)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("%q: json.Unmarshal error %v, parseCounts error %v", data, werr, gerr)
		}
		if werr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: parseCounts %v, json.Unmarshal %v", data, got, want)
		}
	})
}
