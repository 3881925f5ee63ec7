package workload

import (
	"context"
	"testing"

	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/hier"
	"cacheuniformity/internal/trace"
)

func TestInstructionStreamAllFetches(t *testing.T) {
	tr := collectStream(1, 30_000, instructionRun)
	if len(tr) != 30_000 {
		t.Fatalf("length = %d", len(tr))
	}
	for i, a := range tr {
		if a.Kind != trace.Fetch {
			t.Fatalf("access %d kind = %v", i, a.Kind)
		}
		if uint64(a.Addr) < TextBase || uint64(a.Addr) > TextBase+1<<20 {
			t.Fatalf("fetch outside text region: %v", a.Addr)
		}
	}
}

func TestInstructionStreamLocality(t *testing.T) {
	// Instruction fetch is the most cache-friendly stream there is: the
	// L1I miss rate must be tiny.
	tr := collectStream(2, 100_000, instructionRun)
	l1i := mustCache(cache.Config{Layout: l32k, Ways: 1, WriteAllocate: true})
	ctr := cache.Run(l1i, tr)
	if ctr.MissRate() > 0.02 {
		t.Errorf("L1I miss rate = %.4f, want < 0.02", ctr.MissRate())
	}
}

func TestMixedStreamRatioAndRouting(t *testing.T) {
	tr := collectMixed(t, MustLookup("dijkstra"), 3, 40_000, 3)
	if len(tr) != 40_000 {
		t.Fatalf("length = %d", len(tr))
	}
	fetches, data := 0, 0
	for _, a := range tr {
		if a.Kind == trace.Fetch {
			fetches++
		} else {
			data++
		}
	}
	ratio := float64(fetches) / float64(data)
	if ratio < 2.5 || ratio > 3.5 {
		t.Errorf("fetch:data ratio = %.2f, want ≈ 3", ratio)
	}
	// Split hierarchy: fetches land in L1I, the rest in L1D.
	l1d := mustCache(cache.Config{Layout: l32k, Ways: 1, WriteAllocate: true})
	l1i := mustCache(cache.Config{Layout: l32k, Ways: 1, WriteAllocate: true})
	l2 := mustCache(cache.Config{Layout: l32k, Ways: 8, WriteAllocate: true})
	h := mustHier(hier.Config{L1D: l1d, L1I: l1i, L2: l2})
	h.Run(tr)
	if got := l1i.Counters().Accesses; got != uint64(fetches) {
		t.Errorf("L1I accesses = %d, want %d", got, fetches)
	}
	if got := l1d.Counters().Accesses; got != uint64(data) {
		t.Errorf("L1D accesses = %d, want %d", got, data)
	}
	// The I-side hit rate dwarfs the D-side's on a data-conflict workload.
	if l1i.Counters().MissRate() > l1d.Counters().MissRate() {
		t.Error("instruction stream missing more than data stream")
	}
}

func TestMixedStreamDefaultsRatio(t *testing.T) {
	tr := collectMixed(t, MustLookup("crc"), 1, 8_000, 0) // coerced to 3
	if len(tr) != 8_000 {
		t.Errorf("length = %d", len(tr))
	}
}

// collectMixed drains a MixedBatchCtx stream into a slice.
func collectMixed(t *testing.T, spec Spec, seed uint64, n, fetchesPerData int) trace.Trace {
	t.Helper()
	tr, err := trace.CollectBatch(MixedBatchCtx(context.Background(), spec, seed, n, fetchesPerData), n)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}
