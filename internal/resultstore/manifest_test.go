package resultstore

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/core"
	"cacheuniformity/internal/report"
)

// oracleManifest is the definition of a manifest's bytes, the encoder
// manifests were written with before the direct writer:
// report.CanonicalJSONIndent of the manifest struct, plus a newline.
func oracleManifest(key, version string, cfg core.Config, res core.Result) ([]byte, error) {
	data, err := report.CanonicalJSONIndent(manifest{
		Key:       key,
		Version:   version,
		Scheme:    res.Scheme,
		Benchmark: res.Benchmark,
		Config:    cfg.Canonical(),
		Result:    storedResult{Result: res},
	}, "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// checkEncode holds encodeManifest to oracleManifest for one cell: both
// fail, or both give the same bytes.  An accepted manifest's rendering
// is the one the oracle's reply rendering format gives (docRendering)
// and the one the one-pass reader cuts back out of the bytes.
func checkEncode(t *testing.T, key, version string, cfg core.Config, res core.Result) {
	t.Helper()
	got, rendering, gerr := encodeManifest(key, version, cfg, res)
	want, werr := oracleManifest(key, version, cfg, res)
	if (gerr != nil) != (werr != nil) {
		t.Fatalf("encodeManifest error %v, oracle error %v", gerr, werr)
	}
	if werr != nil {
		return
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(0, i-60)
		t.Fatalf("manifest differs from the oracle at byte %d (len %d, want %d):\n got …%q\nwant …%q",
			i, len(got), len(want), got[lo:min(len(got), i+60)], want[lo:min(len(want), i+60)])
	}
	if doc := docRendering(t, res); !bytes.Equal(rendering, doc) {
		t.Fatalf("rendering %q\nwant %q", rendering, doc)
	}
	// A name that encodes as the sentinel sends the read to json.Unmarshal.
	if _, cut, ok := parseCanonical(got); ok && !bytes.Equal(cut, rendering) {
		t.Fatalf("one-pass read: rendering %q\nwant %q", cut, rendering)
	}
}

// TestManifestKeysSorted pins the writer's top-level key order to the
// struct: exactly manifest's json keys, sorted as canonical JSON sorts
// them, so a new field cannot be dropped silently.
func TestManifestKeysSorted(t *testing.T) {
	var tags []string
	rt := reflect.TypeFor[manifest]()
	for i := range rt.NumField() {
		name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		tags = append(tags, name)
	}
	slices.Sort(tags)
	if got := manifestKeys[:]; !slices.Equal(got, tags) {
		t.Fatalf("manifestKeys = %q, want the sorted json keys %q", got, tags)
	}
}

// TestManifestEncodeMatchesOracle: computed results of indexing and
// programmable schemes on three benchmarks at 64, 256 and 1024 sets,
// and results with nil and empty per-set slices, encode byte-identically
// to the oracle.
func TestManifestEncodeMatchesOracle(t *testing.T) {
	schemes := append(slices.Clone(core.IndexingSchemes[:3]), core.ProgrammableSchemes...)
	for _, sets := range []int{64, 256, 1024} {
		cfg := tinyConfig()
		cfg.Layout = addr.MustLayout(32, sets, 32)
		for _, bench := range []string{"crc", "fft", "sha"} {
			for _, scheme := range schemes {
				t.Run(fmt.Sprintf("sets=%d/%s/%s", sets, scheme, bench), func(t *testing.T) {
					res, err := core.RunOne(context.Background(), cfg, scheme, bench)
					if err != nil {
						t.Fatal(err)
					}
					key, err := cellKey(cfg, scheme, bench, CodeVersion)
					if err != nil {
						t.Fatal(err)
					}
					checkEncode(t, key, CodeVersion, cfg, res)
				})
			}
		}
	}
	res := core.Result{Benchmark: "crc", Scheme: "xor", MissRate: 0.5, AMAT: 3}
	checkEncode(t, "k", CodeVersion, tinyConfig(), res)
	res.PerSet = cache.PerSet{Accesses: []uint64{}, Hits: []uint64{}, Misses: []uint64{}}
	checkEncode(t, "k", CodeVersion, tinyConfig(), res)
}

// FuzzManifestEncode holds encodeManifest to oracleManifest over names
// (escaping, invalid UTF-8), float values (non-finite ones must fail on
// both sides, extreme ones take the exponent form) and per-set slices of
// any length, nil or empty.  sets < 0 makes every array nil; bit k of
// nils makes array k nil; seed draws the counts.
func FuzzManifestEncode(f *testing.F) {
	add := func(scheme, bench string, missPenalty, amat float64, sets int, nils uint8, seed uint64) {
		f.Add("k3y", CodeVersion, scheme, bench, missPenalty, amat, sets, nils, seed)
	}
	add("xor", "crc", 100, 1.5, 64, 0, 1)
	add("xor", "crc", 100, math.NaN(), 64, 0, 2)
	add("xor", "crc", 100, math.Inf(1), 64, 0, 3)
	add("xor", "crc", 100, math.Inf(-1), 64, 0, 4)
	add("xor", "crc", math.NaN(), 1.5, 64, 0, 5)
	add("xor", "crc", math.Inf(1), 1.5, 64, 0, 6)
	add("xor", "crc", math.Inf(-1), 1.5, 64, 0, 7)
	add("xor", "crc", 1e21, 1e21, 64, 0, 8)
	add("xor", "crc", 5e-324, 5e-324, 64, 0, 9)
	add("v<ictim>&", "z\u2028", 100, 2, 64, 0, 10)
	add("bad\xff\xfeutf8", "crc\x00", 100, 2, 64, 0, 11)
	add("xor", "crc", 100, 2, -1, 0, 12)
	add("xor", "crc", 100, 2, 0, 0, 13)
	add("xor", "crc", 100, 2, 1, 0, 14)
	add("xor", "crc", 100, 2, 1024, 0, 15)
	add("xor", "crc", 100, 2, 4096, 0, 16)
	add("xor", "crc", 100, 2, 16, 0b101, 17)
	add("xor", "crc", 100, 2, 0, 0b010, 18)
	f.Fuzz(func(t *testing.T, key, version, scheme, bench string, missPenalty, amat float64, sets int, nils uint8, seed uint64) {
		cfg := tinyConfig()
		cfg.MissPenalty = missPenalty
		res := core.Result{Benchmark: bench, Scheme: scheme, MissRate: 0.25, AMAT: amat}
		if sets >= 0 {
			rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
			n := sets % 4097
			draw := func(nilArray bool) []uint64 {
				if nilArray {
					return nil
				}
				v := make([]uint64, n)
				for i := range v {
					switch rng.IntN(4) {
					case 0:
					case 1:
						v[i] = math.MaxUint64
					case 2:
						v[i] = rng.Uint64N(1000)
					default:
						v[i] = rng.Uint64()
					}
				}
				return v
			}
			res.PerSet = cache.PerSet{Accesses: draw(nils&1 != 0), Hits: draw(nils&2 != 0), Misses: draw(nils&4 != 0)}
		}
		checkEncode(t, key, version, cfg, res)
	})
}

// BenchmarkEncodeManifestOracle times oracleManifest on the manifest
// BenchmarkEncodeManifest writes, for comparison in one session.
func BenchmarkEncodeManifestOracle(b *testing.B) {
	key, cfg, res := benchManifestCell(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := oracleManifest(key, CodeVersion, cfg, res); err != nil {
			b.Fatal(err)
		}
	}
}
