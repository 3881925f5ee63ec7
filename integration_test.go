package cacheuniformity

import (
	"context"

	"strings"
	"testing"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/core"
	"cacheuniformity/internal/experiments"
	"cacheuniformity/internal/hier"
	"cacheuniformity/internal/indexing"
	"cacheuniformity/internal/trace"
	"cacheuniformity/internal/workload"
)

// TestEverySchemeThroughFullHierarchy is the end-to-end check: every
// scheme in the roster serves as the L1D of a two-level hierarchy on a
// real workload, cycle accounting stays consistent, and no scheme beats
// the fully-associative envelope by a meaningful margin.
func TestEverySchemeThroughFullHierarchy(t *testing.T) {
	layout := addr.MustLayout(32, 1024, 32)
	tr := workload.MustLookup("dijkstra").Generate(5, 60_000)
	profile := tr.Stream()

	faMisses := uint64(0)
	type outcome struct {
		name   string
		misses uint64
		cpa    float64
	}
	var outcomes []outcome
	for _, s := range core.Schemes() {
		model, err := s.Build(layout, profile)
		if err != nil {
			t.Fatalf("build %s: %v", s.Name, err)
		}
		l2 := mustCache(cache.Config{Layout: layout, Ways: 8, WriteAllocate: true})
		h := mustHier(hier.Config{L1D: model, L2: l2})
		cpa := h.Run(tr)
		ctr := model.Counters()
		if ctr.Accesses != uint64(len(tr)) {
			t.Errorf("%s: accesses %d != %d", s.Name, ctr.Accesses, len(tr))
		}
		if ctr.Hits+ctr.Misses != ctr.Accesses {
			t.Errorf("%s: hits+misses != accesses", s.Name)
		}
		if cpa < 1 {
			t.Errorf("%s: cycles per access %v < 1", s.Name, cpa)
		}
		if s.Name == "fully_associative" {
			faMisses = ctr.Misses
		}
		outcomes = append(outcomes, outcome{s.Name, ctr.Misses, cpa})
	}
	for _, o := range outcomes {
		// Allow slack: FA-LRU is not OPT, and prime-modulo style schemes
		// sacrifice capacity; but nothing should *halve* the FA misses.
		if o.misses*2 < faMisses {
			t.Errorf("%s misses %d implausibly below the fully-associative envelope %d",
				o.name, o.misses, faMisses)
		}
	}
}

// TestFigureTablesDeterministic regenerates a figure twice and requires
// byte-identical renderings — the reproducibility contract of the whole
// harness (seeded RNG, no map-order leakage, stable parallel grid).
func TestFigureTablesDeterministic(t *testing.T) {
	cfg := core.Default()
	cfg.TraceLength = 20_000
	for _, id := range []int{4, 6, 13} {
		f, err := experiments.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		render := func() string {
			tbl, err := f.Run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("figure %d: %v", id, err)
			}
			var sb strings.Builder
			if err := tbl.WriteText(&sb); err != nil {
				t.Fatal(err)
			}
			return sb.String()
		}
		if a, b := render(), render(); a != b {
			t.Errorf("figure %d rendering not deterministic:\n%s\n---\n%s", id, a, b)
		}
	}
}

// TestSMTPipelineEndToEnd wires workload generation, interleaving, the
// shared-index cache and the hierarchy together the way cmd/experiments'
// Figure 13 does, and checks cycle totals line up with L1 counters.
func TestSMTPipelineEndToEnd(t *testing.T) {
	layout := addr.MustLayout(32, 1024, 32)
	a := workload.MustLookup("fft").Generate(1, 20_000)
	b := workload.MustLookup("crc").Generate(2, 20_000)
	mix, err := trace.CollectBatch(trace.RoundRobinBatch(a.NewBatchReader(), b.NewBatchReader()), 0)
	if err != nil {
		t.Fatal(err)
	}
	shared := mustSharedIndexCache(layout, []indexing.Func{
		indexing.MustOddMultiplier(layout, 9),
		indexing.MustOddMultiplier(layout, 21),
	})
	l2 := mustCache(cache.Config{Layout: layout, Ways: 8, WriteAllocate: true})
	h := mustHier(hier.Config{L1D: shared, L2: l2})
	cpa := h.Run(mix)
	ctr := shared.Counters()
	if ctr.Accesses != uint64(len(mix)) {
		t.Fatalf("accesses %d != %d", ctr.Accesses, len(mix))
	}
	// Cycle identity: hits cost 1, misses cost 1 + 10 (+100 on L2 miss).
	l2ctr := l2.Counters()
	wantCycles := ctr.Hits + ctr.Misses*11 + l2ctr.Misses*100
	// Writebacks into L2 may add L2 misses that were not charged latency;
	// recompute from the hierarchy's own counter instead of equality on
	// an approximation: the identity must hold exactly when no writebacks
	// missed in L2.  Accept a small bounded gap.
	gap := int64(h.Cycles) - int64(wantCycles)
	if gap < -int64(l2ctr.Writebacks+l2ctr.Evictions)*100 || gap > int64(l2ctr.Evictions+l2ctr.Writebacks)*100 {
		t.Errorf("cycle accounting gap %d outside writeback slack", gap)
	}
	if cpa <= 1 {
		t.Errorf("cycles per access = %v", cpa)
	}
}

// TestGridMatchesSequentialRuns cross-checks the parallel grid against
// independent sequential RunOne calls.
func TestGridMatchesSequentialRuns(t *testing.T) {
	cfg := core.Default()
	cfg.TraceLength = 15_000
	schemes := []string{"baseline", "xor", "adaptive"}
	benches := []string{"sha", "qsort"}
	grid, err := core.Grid(context.Background(), cfg, schemes, benches)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range benches {
		for _, s := range schemes {
			solo, err := core.RunOne(context.Background(), cfg, s, b)
			if err != nil {
				t.Fatal(err)
			}
			if grid[b][s].Counters != solo.Counters {
				t.Errorf("%s/%s: grid %+v != solo %+v", b, s, grid[b][s].Counters, solo.Counters)
			}
		}
	}
}
