package resultstore

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"reflect"
	"testing"

	"cacheuniformity/internal/cache"
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

// canonicalSeedManifest is a manifest as encodeManifest writes it for a
// 1024-set result under (key, fuzzVersion), with the given names.
func canonicalSeedManifest(tb testing.TB, key, scheme, bench string) []byte {
	tb.Helper()
	cfg := core.Default().Canonical()
	ps := cache.NewPerSet(1024)
	rng := rand.New(rand.NewPCG(3, 4))
	for i := range ps.Accesses {
		ps.Hits[i], ps.Misses[i] = rng.Uint64N(500), rng.Uint64N(50)
		ps.Accesses[i] = ps.Hits[i] + ps.Misses[i]
	}
	data, err := encodeManifest(key, fuzzVersion, cfg, core.Result{
		Benchmark: bench, Scheme: scheme, MissRate: 0.0345, AMAT: 1.69, PerSet: ps,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzManifestDecode holds the on-disk tier's decoder to the reference,
// json.Unmarshal into a manifest: both accept and reject the same bytes,
// and give deeply equal manifests.  Anything decodeManifest accepts must
// also belong to the key and version it was found under.  The input is a
// file on disk, so any byte sequence is possible; the seeds after the
// 1024-set manifest probe the one-pass reader's layout match.
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

	canonical := canonicalSeedManifest(f, key, "xor", "crc")
	f.Add(canonical)
	var compact bytes.Buffer
	if err := json.Compact(&compact, canonical); err != nil {
		f.Fatal(err)
	}
	f.Add(compact.Bytes())
	// The per-set separators inside an escaped name.
	name := string(perSetSeps[0]) + "[]" + string(perSetSeps[1]) + "[]" + string(perSetSeps[2]) + "[]" + string(perSetSeps[3])
	f.Add(canonicalSeedManifest(f, key, name, "crc"))
	edit := func(old, new string) {
		if !bytes.Contains(canonical, []byte(old)) {
			f.Fatalf("seed manifest lacks %q", old)
		}
		f.Add(bytes.Replace(canonical, []byte(old), []byte(new), 1))
	}
	// A second PerSet key before and after the first; null elements keep
	// what the earlier one decoded.
	edit(`"result": {`, `"result": {"PerSet": {"Accesses": [5, 6], "Hits": [7]},`)
	f.Add(bytes.Replace(bytes.Replace(canonical, []byte(`"result": {`), []byte(`"result": {"PerSet": {"Accesses": [5]},`), 1),
		[]byte("\"Accesses\": [\n        "), []byte("\"Accesses\": [\n        null,\n        "), 1))
	edit("\n    \"Scheme\": \"xor\"", "\n    \"perset\": {\"Hits\": [1]},\n    \"Scheme\": \"xor\"")
	// A PerSet object in the canonical layout under config, ahead of
	// result's.
	edit(`"config": {`, `"config": {`+perSetKey+`{
      "Accesses": [
        1
      ],
      "Hits": [],
      "Misses": null
    },`)
	// The sentinel as result's PerSet, behind a PerSet object under
	// config.
	f.Add([]byte(`{
  "benchmark": "crc",
  "config": {` + perSetKey + `{
      "Accesses": [],
      "Hits": [],
      "Misses": []
    },
    "seed": 1
  },
  "key": "` + key + `",
  "result": {
    "Benchmark": "crc",
    "PerSet": ` + string(perSetSentinel) + `,
    "Scheme": "xor"
  },
  "scheme": "xor",
  "version": "fuzz"
}`))
	// An unknown key in place of a per-set array's.
	edit(`"Hits": [`, `"Hitz": [`)
	// A bad element inside an array.
	for _, bad := range []string{"-1", "1.5", "null", "01"} {
		edit("\"Accesses\": [\n        ", "\"Accesses\": [\n        "+bad+",\n        ")
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, _, gerr := parseManifest(data)
		var want manifest
		werr := json.Unmarshal(data, &want)
		if (gerr != nil) != (werr != nil) {
			t.Fatalf("parseManifest error %v, json.Unmarshal error %v", gerr, werr)
		}
		if werr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("parseManifest %+v\njson.Unmarshal %+v", got, want)
		}
		res, _, err := decodeManifest(data, key, fuzzVersion)
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
