package resultstore

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/core"
	"cacheuniformity/internal/registry"
	"cacheuniformity/internal/report"
	"cacheuniformity/internal/workload"
)

func TestCellKeyCollapsesEquivalentConfigs(t *testing.T) {
	want, err := cellKey(core.Config{}, "xor", "crc", CodeVersion)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := regexp.MatchString(`^[0-9a-f]{64}$`, want); !ok {
		t.Fatalf("key is not hex sha256: %q", want)
	}
	// Every spelling of the default experiment must share one key, or a
	// warm store suffers false misses.
	equivalents := []core.Config{
		core.Default(),
		{Parallelism: 7},
		{TraceLength: 300_000, Seed: 20110913},
	}
	for i, cfg := range equivalents {
		got, err := cellKey(cfg, "xor", "crc", CodeVersion)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("config %d: key %s, want %s", i, got, want)
		}
	}
}

// TestCellKeyGolden pins two store keys at CodeVersion "2".  A change to
// Config's fields, their canonical JSON or the key payload that moves
// these values orphans every persisted cell, so it must come with a
// CodeVersion bump and new values here.
func TestCellKeyGolden(t *testing.T) {
	if CodeVersion != "3" {
		t.Fatalf("CodeVersion = %q; re-pin the golden keys for the new version", CodeVersion)
	}
	parallel := core.Default()
	parallel.Parallelism = 7
	cases := []struct {
		cfg           core.Config
		scheme, bench string
		want          string
	}{
		{core.Default(), "baseline", "fft", "3fb61677e3fe6ed685d7b50abfda616fb5246e8aa90d3b7074ef8f15de0b641f"},
		{parallel, "xor", "sha", "a47919c510523394b827c1ba33ae86f03dca5945ece5073676a8ed762954886c"},
	}
	for _, c := range cases {
		got, err := cellKey(c.cfg, c.scheme, c.bench, CodeVersion)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("cellKey(%s, %s) = %s, want %s", c.scheme, c.bench, got, c.want)
		}
	}
}

func TestCellKeyDiscriminates(t *testing.T) {
	base, err := cellKey(core.Config{}, "xor", "crc", CodeVersion)
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name    string
		cfg     core.Config
		scheme  string
		bench   string
		version string
	}{
		{"scheme", core.Config{}, "baseline", "crc", CodeVersion},
		{"benchmark", core.Config{}, "xor", "fft", CodeVersion},
		{"version", core.Config{}, "xor", "crc", CodeVersion + "-next"},
		{"seed", core.Config{Seed: 99}, "xor", "crc", CodeVersion},
		{"trace length", core.Config{TraceLength: 1000}, "xor", "crc", CodeVersion},
		{"layout", core.Config{Layout: addr.MustLayout(64, 256, 32)}, "xor", "crc", CodeVersion},
		{"miss penalty", core.Config{MissPenalty: 21}, "xor", "crc", CodeVersion},
	}
	for _, v := range variants {
		got, err := cellKey(v.cfg, v.scheme, v.bench, v.version)
		if err != nil {
			t.Fatal(err)
		}
		if got == base {
			t.Errorf("%s change did not change the key", v.name)
		}
	}
}

// cellKey is CellKeyDecl over default-roster names: the scheme name
// resolves to its registry declaration and the benchmark name to its
// kernel declaration, so name-based requests and the equivalent declared
// compositions address the same cell.
func cellKey(cfg core.Config, scheme, bench, version string) (string, error) {
	return CellKeyDecl(cfg, registry.Decl{Name: scheme}, registry.Decl{Name: bench}, version)
}

// keyPayload is the struct form of a cell's hashed identity: the store
// key is the SHA-256 of report.CanonicalJSON(keyPayload{...}), which
// appendKeyPayload writes without the codec.
type keyPayload struct {
	Config    core.Config   `json:"config"`
	Scheme    registry.Decl `json:"scheme"`
	Benchmark registry.Decl `json:"benchmark"`
	Version   string        `json:"version"`
}

// FuzzCellKeyPayload holds the direct key writer to its definition: for
// any config, resolvable declarations (given as request JSON) and
// version, Resolve plus appendKeyPayload give the bytes
// report.CanonicalJSON gives the keyPayload of the canonical
// declarations, and both fail together on a non-finite miss penalty.
func FuzzCellKeyPayload(f *testing.F) {
	inline := [][2]string{
		{`"xor"`, `"crc"`},
		{`{"kind":"victim","params":{"entries":32}}`, `{"kind":"zipf","params":{"blocks":128,"skew":1.5,"write_frac":1e-7}}`},
		{`{"name":"four<way>&","kind":"set_associative","params":{"ways":4}}`, `{"kind":"interleave","params":{"parts":["fft","sha"]}}`},
		{`{"kind":"repartition","params":{"by":"access","interval":1024}}`, `{"name":"m","kind":"mix","params":{"data":"qsort"}}`},
		{`"column_xor"`, `{"kind":"kernel","params":{"benchmark":"sha"}}`},
	}
	penalties := []float64{20, 0.5, 1e21, 1e-7, 123456789.5, 5e-324}
	for i, mp := range penalties {
		d := inline[i%len(inline)]
		// Layout fields, seed and trace length vary per seed entry, zero
		// included so Canonical's defaults are exercised.
		f.Add(mp, uint64(i*7919), i*1001-2000, uint8(i), uint8(10-i), uint8(32+i), d[0], d[1], CodeVersion)
	}
	for i, d := range inline {
		f.Add(float64(i)+0.25, uint64(1)<<63+uint64(i), 300_000, uint8(5), uint8(10), uint8(32), d[0], d[1], "v<"+CodeVersion+">\u2028")
	}
	f.Add(math.NaN(), uint64(1), 1, uint8(5), uint8(10), uint8(32), `"xor"`, `"crc"`, CodeVersion)
	// encoding/json writes invalid UTF-8 as \ufffd; the canonical round
	// trip writes the character itself.
	f.Add(20.0, uint64(1), 1, uint8(5), uint8(10), uint8(32), `"xor"`, `"crc"`, "\xcd")

	f.Fuzz(func(t *testing.T, mp float64, seed uint64, length int, ob, ib, ab uint8, schemeReq, benchReq, version string) {
		var sd, bd registry.Decl
		if json.Unmarshal([]byte(schemeReq), &sd) != nil || json.Unmarshal([]byte(benchReq), &bd) != nil {
			return
		}
		r, err := Resolve(sd, bd)
		if err != nil {
			return
		}
		cfg := core.Config{
			Layout:      addr.Layout{OffsetBits: uint(ob), IndexBits: uint(ib), AddressBits: uint(ab)},
			TraceLength: length,
			Seed:        seed,
			MissPenalty: mp,
		}
		want, werr := report.CanonicalJSON(keyPayload{Config: cfg.Canonical(), Scheme: r.Scheme.Decl, Benchmark: r.BenchDecl, Version: version})
		got, gerr := appendKeyPayload(nil, cfg, r.SchemeJSON, r.BenchJSON, version)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("codec error %v, writer error %v", werr, gerr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("writer bytes differ from the codec's:\n got %s\nwant %s", got, want)
		}
	})
}

// jsonFields lists the JSON-visible field names of a struct type.
func jsonFields(t *testing.T, rt reflect.Type) []string {
	t.Helper()
	var out []string
	for i := range rt.NumField() {
		f := rt.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if !f.IsExported() || name == "-" {
			continue
		}
		if f.Anonymous {
			t.Fatalf("%s embeds %s; extend the guard to its promoted fields", rt, f.Name)
		}
		if name == "" {
			name = f.Name
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TestKeyPayloadFields guards the direct key writer against a struct
// change: every JSON-visible field of keyPayload, core.Config and
// addr.Layout must appear in the written payload, and nothing else.  A
// field the writer skipped would make two different cells share one
// key.
func TestKeyPayloadFields(t *testing.T) {
	r, err := Resolve(registry.Decl{Name: "xor"}, registry.Decl{Name: "crc"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := appendKeyPayload(nil, core.Default(), r.SchemeJSON, r.BenchJSON, CodeVersion)
	if err != nil {
		t.Fatal(err)
	}
	var payload map[string]any
	if err := json.Unmarshal(b, &payload); err != nil {
		t.Fatal(err)
	}
	config, _ := payload["config"].(map[string]any)
	layout, _ := config["layout"].(map[string]any)
	for _, c := range []struct {
		what    string
		written map[string]any
		rt      reflect.Type
	}{
		{"key payload", payload, reflect.TypeFor[keyPayload]()},
		{"config", config, reflect.TypeFor[core.Config]()},
		{"layout", layout, reflect.TypeFor[addr.Layout]()},
	} {
		var got []string
		for k := range c.written {
			got = append(got, k)
		}
		sort.Strings(got)
		if want := jsonFields(t, c.rt); !slices.Equal(got, want) {
			t.Errorf("%s: writer writes %q, %s has JSON fields %q", c.what, got, c.rt, want)
		}
	}
}

// TestCatalogDeclJSON: every bare catalog name resolves to the
// canonical JSON of its canonical declaration, table or not.
func TestCatalogDeclJSON(t *testing.T) {
	check := func(what string, got []byte, canon registry.Decl) {
		t.Helper()
		want, err := report.CanonicalJSON(canon)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: bytes %s, want %s", what, got, want)
		}
	}
	for _, sc := range registry.DefaultSchemes() {
		r, err := Resolve(registry.Decl{Name: sc.Name}, registry.Decl{Name: "crc"})
		if err != nil {
			t.Fatal(err)
		}
		check("scheme "+sc.Name, r.SchemeJSON, r.Scheme.Decl)
	}
	for _, name := range workload.Names("") {
		r, err := Resolve(registry.Decl{Name: "xor"}, registry.Decl{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		check("benchmark "+name, r.BenchJSON, r.BenchDecl)
	}
	if n := len(catalog().schemes) + len(catalog().benches); n != len(registry.DefaultSchemes())+len(workload.Names("")) {
		t.Errorf("catalog holds %d names, want every default scheme and kernel", n)
	}
}
