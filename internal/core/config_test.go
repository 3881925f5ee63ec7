package core

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/report"
)

// TestConfigCanonicalRoundTrip is the store-keying contract: a canonical
// Config must encode/decode through JSON to an identical value AND to
// identical canonical bytes, or the result store would suffer false
// misses from representation drift.
func TestConfigCanonicalRoundTrip(t *testing.T) {
	configs := []Config{
		{},        // zero value: Canonical fills the paper defaults
		Default(), // the defaults themselves
		{Layout: addr.MustLayout(64, 256, 32), TraceLength: 123_457, Seed: 18446744073709551615, MissPenalty: 12.75},
		{Seed: 1, MissPenalty: 0.30000000000000004}, // float needing full precision
	}
	for i, cfg := range configs {
		canon := cfg.Canonical()
		enc, err := report.CanonicalJSON(canon)
		if err != nil {
			t.Fatalf("config %d: encode: %v", i, err)
		}
		var back Config
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("config %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(back, canon) {
			t.Errorf("config %d: round-trip drift:\n got %+v\nwant %+v", i, back, canon)
		}
		re, err := report.CanonicalJSON(back)
		if err != nil {
			t.Fatalf("config %d: re-encode: %v", i, err)
		}
		if !bytes.Equal(enc, re) {
			t.Errorf("config %d: bytes drift:\n %s\n %s", i, enc, re)
		}
	}
}

// TestConfigCanonicalCollapsesEquivalents pins the false-cache-miss fix:
// every spelling of "the default experiment" — zero fields, explicit
// defaults, different Parallelism/Memo — canonicalises to the
// same value and hence the same store key.
func TestConfigCanonicalCollapsesEquivalents(t *testing.T) {
	want := Default().Canonical()
	equivalents := []Config{
		{},
		Default(),
		{Parallelism: 7},
		{TraceLength: 300_000, Seed: 20110913},
		{Memo: stubMemo{}},
	}
	for i, cfg := range equivalents {
		got := cfg.Canonical()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("config %d: Canonical() = %+v, want %+v", i, got, want)
		}
		enc, err := report.CanonicalJSON(got)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		wantEnc, err := report.CanonicalJSON(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, wantEnc) {
			t.Errorf("config %d: bytes differ: %s vs %s", i, enc, wantEnc)
		}
	}
	if reflect.DeepEqual(Config{Seed: 99}.Canonical(), want) {
		t.Error("distinct seeds must not collapse to the same canonical config")
	}
}

func TestConfigCanonicalIdempotent(t *testing.T) {
	cfg := Config{TraceLength: 1000, Parallelism: 3}
	once := cfg.Canonical()
	twice := once.Canonical()
	if !reflect.DeepEqual(once, twice) {
		t.Fatalf("Canonical not idempotent: %+v vs %+v", once, twice)
	}
}

// stubMemo records interceptions; used by the hook tests below.
type stubMemo struct {
	grids *int
	cells *int
}

func (m stubMemo) MemoGrid(ctx context.Context, cfg Config, schemes, benches []string) (map[string]map[string]Result, error) {
	if m.grids != nil {
		*m.grids++
	}
	if cfg.Memo != nil {
		panic("Memo not cleared before delegation")
	}
	return Grid(ctx, cfg, schemes, benches)
}

func (m stubMemo) MemoCell(ctx context.Context, cfg Config, scheme, bench string) (Result, error) {
	if m.cells != nil {
		*m.cells++
	}
	if cfg.Memo != nil {
		panic("Memo not cleared before delegation")
	}
	return RunOne(ctx, cfg, scheme, bench)
}

// TestMemoizerIntercepts proves the hook fires for the name-based entry
// points, after name validation, with Memo cleared.
func TestMemoizerIntercepts(t *testing.T) {
	cfg := tinyConfig()
	grids, cells := 0, 0
	cfg.Memo = stubMemo{grids: &grids, cells: &cells}

	if _, err := RunOne(context.Background(), cfg, "baseline", "crc"); err != nil {
		t.Fatalf("RunOne via memo: %v", err)
	}
	if cells != 1 {
		t.Fatalf("MemoCell fired %d times, want 1", cells)
	}

	// Unknown names error before the memoizer sees the call.
	if _, err := RunOne(context.Background(), cfg, "no_such_scheme", "crc"); err == nil {
		t.Fatal("unknown scheme: want error")
	}
	if _, err := Grid(context.Background(), cfg, []string{"baseline"}, []string{"no_such_bench"}); err == nil {
		t.Fatal("unknown bench: want error")
	}
	if cells != 1 || grids != 0 {
		t.Fatalf("memoizer saw invalid-name calls (cells=%d grids=%d)", cells, grids)
	}

	grid, err := Grid(context.Background(), cfg, []string{"baseline", "xor"}, []string{"crc"})
	if err != nil {
		t.Fatalf("Grid via memo: %v", err)
	}
	if grids != 1 {
		t.Fatalf("MemoGrid fired %d times, want 1", grids)
	}
	// The memoized grid must match the direct engines.
	direct, err := Grid(context.Background(), tinyConfig(), []string{"baseline", "xor"}, []string{"crc"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(grid, direct) {
		t.Fatal("memoized grid differs from direct grid")
	}
}

func tinyConfig() Config {
	cfg := Default()
	cfg.TraceLength = 2_000
	l, err := addr.NewLayout(32, 64, 32)
	if err != nil {
		panic(err)
	}
	cfg.Layout = l
	return cfg
}
