package resultstore

import (
	"regexp"
	"testing"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/core"
	"cacheuniformity/internal/registry"
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
