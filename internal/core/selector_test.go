package core

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"cacheuniformity/internal/workload"
)

// selectOne runs SelectIndexing for a single benchmark.
func selectOne(t *testing.T, cfg Config, bench string) Selection {
	t.Helper()
	sels, err := SelectIndexing(context.Background(), cfg, bench)
	if err != nil {
		t.Fatal(err)
	}
	if len(sels) != 1 {
		t.Fatalf("%d selections for one benchmark", len(sels))
	}
	return sels[0]
}

func TestSelectIndexingPicksAWinner(t *testing.T) {
	cfg := fastCfg()
	sel := selectOne(t, cfg, "sha")
	if sel.Benchmark != "sha" {
		t.Errorf("benchmark = %q", sel.Benchmark)
	}
	// sha is engineered around an index conflict: some non-baseline scheme
	// must win decisively.
	if sel.Scheme == "baseline" {
		t.Errorf("selector chose baseline for sha (candidates %v)", sel.Candidates)
	}
	if sel.ProfileMissRate >= sel.Candidates["baseline"] {
		t.Error("winner not better than baseline")
	}
	if len(sel.Candidates) != 6 {
		t.Errorf("candidates = %d, want 6", len(sel.Candidates))
	}
}

func TestSelectIndexingDefaultsToBaseline(t *testing.T) {
	cfg := fastCfg()
	// adpcm's tiny working set leaves nothing to improve; unless a scheme
	// strictly beats the baseline, the conventional index must remain.
	sel := selectOne(t, cfg, "adpcm")
	base := sel.Candidates["baseline"]
	if sel.Scheme != "baseline" && sel.ProfileMissRate >= base {
		t.Errorf("selected %s without strict improvement (%v >= %v)", sel.Scheme, sel.ProfileMissRate, base)
	}
}

// TestSelectIndexingUnknownBenchmark: an unknown name anywhere in the
// list fails the call before any cell is simulated or any trace compiled.
func TestSelectIndexingUnknownBenchmark(t *testing.T) {
	if _, err := SelectIndexing(context.Background(), fastCfg(), "nosuch"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	cfg := tinyConfig()
	traces := NewMemTraceCache(0)
	cfg.Traces = traces
	grids, cells := 0, 0
	cfg.Memo = stubMemo{grids: &grids, cells: &cells}
	if _, err := SelectIndexing(context.Background(), cfg, "crc", "nosuch", "fft"); err == nil {
		t.Error("unknown benchmark accepted among known ones")
	}
	if compiles, _ := traces.Stats(); grids != 0 || cells != 0 || compiles != 0 {
		t.Errorf("work started before rejection: %d grids, %d cells, %d trace compiles", grids, cells, compiles)
	}
}

func TestSelectIndexingDeterministic(t *testing.T) {
	cfg := fastCfg()
	a := selectOne(t, cfg, "fft")
	b := selectOne(t, cfg, "fft")
	if a.Scheme != b.Scheme || a.ProfileMissRate != b.ProfileMissRate {
		t.Errorf("selection not deterministic: %+v vs %+v", a, b)
	}
}

// ruleWinner states the selection rule directly: the lowest miss rate
// wins; among equal lowest rates the baseline wins if it is one of them,
// otherwise the alphabetically first scheme.
func ruleWinner(candidates map[string]float64) string {
	best := candidates["baseline"]
	for _, r := range candidates {
		best = min(best, r)
	}
	if candidates["baseline"] == best {
		return "baseline"
	}
	var tied []string
	for name, r := range candidates {
		if r == best {
			tied = append(tied, name)
		}
	}
	return slices.Min(tied)
}

// TestSelectIndexingBatchMatchesAlone: selecting every benchmark in one
// call returns, in order, exactly the selections each benchmark gets on
// its own, whatever the worker count (and so whichever replay path the
// grid takes).
func TestSelectIndexingBatchMatchesAlone(t *testing.T) {
	for _, par := range []int{1, 4} {
		cfg := Default()
		cfg.TraceLength = 10_000
		cfg.Parallelism = par
		cfg.Traces = NewMemTraceCache(0)
		all, err := SelectIndexing(context.Background(), cfg, workload.MiBenchOrder...)
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != len(workload.MiBenchOrder) {
			t.Fatalf("parallelism %d: %d selections for %d benchmarks", par, len(all), len(workload.MiBenchOrder))
		}
		for i, bench := range workload.MiBenchOrder {
			if alone := selectOne(t, cfg, bench); !reflect.DeepEqual(all[i], alone) {
				t.Errorf("parallelism %d, %s: batch %+v, alone %+v", par, bench, all[i], alone)
			}
			if want := ruleWinner(all[i].Candidates); all[i].Scheme != want {
				t.Errorf("parallelism %d, %s: selected %s, rule picks %s from %v", par, bench, all[i].Scheme, want, all[i].Candidates)
			}
		}
	}
}
