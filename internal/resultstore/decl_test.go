package resultstore

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"cacheuniformity/internal/core"
	"cacheuniformity/internal/registry"
	"cacheuniformity/internal/testutil"
)

// TestCellKeyDeclCanonicalises pins the key-space contract of the
// declarative refactor: every spelling of the same cell — a bare name, a
// kind with defaults elided, a kind with defaults written out — shares
// one key, while semantically distinct declarations never collide.
func TestCellKeyDeclCanonicalises(t *testing.T) {
	cfg := core.Config{}

	byName, err := cellKey(cfg, "victim", "crc", CodeVersion)
	if err != nil {
		t.Fatal(err)
	}
	spellings := []struct {
		name   string
		scheme registry.Decl
		bench  registry.Decl
	}{
		{"kind with defaults elided",
			registry.Decl{Kind: "victim"}, registry.Decl{Name: "crc"}},
		{"kind with defaults written out",
			registry.Decl{Name: "victim", Kind: "victim", Params: registry.Params{"entries": 16}},
			registry.Decl{Name: "crc"}},
		{"kernel declaration for the benchmark",
			registry.Decl{Kind: "victim"},
			registry.Decl{Name: "crc", Kind: "kernel", Params: registry.Params{"benchmark": "crc"}}},
	}
	for _, sp := range spellings {
		got, err := CellKeyDecl(cfg, sp.scheme, sp.bench, CodeVersion)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if got != byName {
			t.Errorf("%s: key %s, want the name-based key %s", sp.name, got, byName)
		}
	}

	distinct := []struct {
		name   string
		scheme registry.Decl
		bench  registry.Decl
	}{
		{"different scheme parameters",
			registry.Decl{Kind: "victim", Params: registry.Params{"entries": 32}},
			registry.Decl{Name: "crc"}},
		{"different scheme kind",
			registry.Decl{Kind: "temperature"}, registry.Decl{Name: "crc"}},
		{"synthetic benchmark",
			registry.Decl{Kind: "victim"}, registry.Decl{Kind: "zipf"}},
	}
	for _, d := range distinct {
		got, err := CellKeyDecl(cfg, d.scheme, d.bench, CodeVersion)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if got == byName {
			t.Errorf("%s: key collides with the victim/crc cell", d.name)
		}
	}

	// Invalid declarations fail at key time with the field named, so a
	// store never hashes (and caches under) a nonsense identity.
	if _, err := CellKeyDecl(cfg, registry.Decl{Kind: "victim", Params: registry.Params{"entries": 0}}, registry.Decl{Name: "crc"}, CodeVersion); err == nil || !strings.Contains(err.Error(), "params.entries") {
		t.Errorf("invalid scheme decl: err = %v, want params.entries path", err)
	}
	if _, err := CellKeyDecl(cfg, registry.Decl{Kind: "victim"}, registry.Decl{Kind: "zipf", Params: registry.Params{"skew": -1}}, CodeVersion); err == nil || !strings.Contains(err.Error(), "params.skew") {
		t.Errorf("invalid bench decl: err = %v, want params.skew path", err)
	}
}

// TestCellDeclMemoisation exercises the ISSUE's acceptance criterion for
// declared compositions: distinct declarations get distinct cells,
// repeats warm-hit, and the name-based path shares entries with the
// equivalent declaration.
func TestCellDeclMemoisation(t *testing.T) {
	defer testutil.CheckLeaks(t)
	s := openTemp(t, Options{})
	cfg := tinyConfig()
	ctx := context.Background()

	scheme := registry.Decl{Kind: "repartition", Params: registry.Params{"interval": 256, "granules": 8}}
	bench := registry.Decl{Kind: "zipf", Params: registry.Params{"blocks": 256}}

	res, origin, err := s.CellDecl(ctx, cfg, scheme, bench)
	if err != nil {
		t.Fatal(err)
	}
	if origin != OriginComputed {
		t.Fatalf("cold declared cell origin = %s, want %s", origin, OriginComputed)
	}
	if res.Counters.Accesses != uint64(cfg.TraceLength) {
		t.Fatalf("accesses = %d, want %d", res.Counters.Accesses, cfg.TraceLength)
	}

	again, origin, err := s.CellDecl(ctx, cfg, scheme, bench)
	if err != nil {
		t.Fatal(err)
	}
	if origin != OriginMemory {
		t.Fatalf("repeat declared cell origin = %s, want %s", origin, OriginMemory)
	}
	if !reflect.DeepEqual(res, again) {
		t.Fatal("warm hit returned a different result")
	}

	// A restatement with the defaults spelled out is the same cell.
	restated := registry.Decl{Name: "repartition", Kind: "repartition",
		Params: registry.Params{"interval": 256, "granules": 8, "partitions": 2, "by": "thread"}}
	_, origin, err = s.CellDecl(ctx, cfg, restated, bench)
	if err != nil {
		t.Fatal(err)
	}
	if origin != OriginMemory {
		t.Fatalf("restated cell origin = %s, want %s", origin, OriginMemory)
	}

	// A semantically different declaration is a different cell.
	other := registry.Decl{Kind: "repartition", Params: registry.Params{"interval": 512, "granules": 8}}
	_, origin, err = s.CellDecl(ctx, cfg, other, bench)
	if err != nil {
		t.Fatal(err)
	}
	if origin != OriginComputed {
		t.Fatalf("distinct declaration origin = %s, want %s", origin, OriginComputed)
	}

	// Name-based and declared spellings of a default-roster cell share
	// one entry, in both directions.
	if _, origin, err = s.Cell(ctx, cfg, "victim", "crc"); err != nil || origin != OriginComputed {
		t.Fatalf("name-based cold cell = %s (%v), want %s", origin, err, OriginComputed)
	}
	if _, origin, err = s.CellDecl(ctx, cfg, registry.Decl{Kind: "victim"}, registry.Decl{Name: "crc"}); err != nil || origin != OriginMemory {
		t.Fatalf("declared spelling of name-based cell = %s (%v), want %s", origin, err, OriginMemory)
	}

	// Invalid declarations fail before any work, naming the field.
	if _, _, err := s.CellDecl(ctx, cfg, registry.Decl{Kind: "nosuch"}, bench); err == nil || !strings.Contains(err.Error(), "scheme: kind:") {
		t.Errorf("unknown kind: err = %v", err)
	}
	if _, _, err := s.CellDecl(ctx, cfg, scheme, registry.Decl{Kind: "zipf", Params: registry.Params{"blocks": 1}}); err == nil || !strings.Contains(err.Error(), "benchmark: params.blocks") {
		t.Errorf("invalid bench: err = %v", err)
	}
}

// TestGridDeclsMemoisesAndRejectsAmbiguity runs a declared grid twice —
// the second pass must be served entirely from the tiers — and verifies
// that a name reused for different parameters is rejected up front.
func TestGridDeclsMemoisesAndRejectsAmbiguity(t *testing.T) {
	defer testutil.CheckLeaks(t)
	s := openTemp(t, Options{})
	cfg := tinyConfig()
	ctx := context.Background()

	schemes := []registry.Decl{
		{Name: "baseline"},
		{Kind: "temperature", Params: registry.Params{"epoch": 512}},
	}
	benches := []registry.Decl{
		{Name: "crc"},
		{Name: "hot", Kind: "zipf", Params: registry.Params{"blocks": 128, "skew": 1.5}},
	}

	g1, err := s.GridDecls(ctx, cfg, schemes, benches)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []string{"crc", "hot"} {
		row, ok := g1[b]
		if !ok || len(row) != 2 {
			t.Fatalf("row %q = %v", b, row)
		}
		for name, r := range row {
			if r.Err != nil {
				t.Fatalf("%s/%s: %v", b, name, r.Err)
			}
			if r.Counters.Accesses != uint64(cfg.TraceLength) {
				t.Errorf("%s/%s: %d accesses", b, name, r.Counters.Accesses)
			}
		}
	}

	before := s.Counters()
	g2, err := s.GridDecls(ctx, cfg, schemes, benches)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g1, g2) {
		t.Fatal("warm grid differs from cold grid")
	}
	after := s.Counters()
	if after.Misses != before.Misses {
		t.Errorf("warm grid missed the tiers %d times", after.Misses-before.Misses)
	}
	if hits := after.MemoryHits - before.MemoryHits; hits != 4 {
		t.Errorf("warm grid took %d memory hits, want 4", hits)
	}

	// The name-based grid addresses the same cells.
	g3, err := s.Grid(ctx, cfg, []string{"baseline"}, []string{"crc"})
	if err != nil {
		t.Fatal(err)
	}
	warm := s.Counters()
	if warm.Misses != after.Misses {
		t.Error("name-based grid missed cells the declared grid computed")
	}
	if !reflect.DeepEqual(g3["crc"]["baseline"], g1["crc"]["baseline"]) {
		t.Error("name-based and declared grids disagree on a shared cell")
	}

	// One name, two meanings: rejected with the offending index named.
	_, err = s.GridDecls(ctx, cfg, []registry.Decl{
		{Name: "t", Kind: "temperature", Params: registry.Params{"epoch": 512}},
		{Name: "t", Kind: "temperature", Params: registry.Params{"epoch": 1024}},
	}, benches)
	if err == nil || !strings.Contains(err.Error(), `schemes[1]`) {
		t.Errorf("ambiguous scheme names: err = %v", err)
	}
	// An exact restatement is not ambiguous.
	if _, err := s.GridDecls(ctx, cfg, []registry.Decl{{Name: "baseline"}, {Name: "baseline"}}, []registry.Decl{{Name: "crc"}}); err != nil {
		t.Errorf("duplicate identical declarations rejected: %v", err)
	}
}
