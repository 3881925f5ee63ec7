package hier

import (
	"testing"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/trace"
)

var l1Layout = addr.MustLayout(32, 1024, 32)
var l2Layout = addr.MustLayout(32, 1024, 32) // 256KB = 1024 sets × 8 ways × 32B

func newL1() *cache.Cache {
	return mustCache(cache.Config{Layout: l1Layout, Ways: 1, WriteAllocate: true})
}

func newL2() *cache.Cache {
	return mustCache(cache.Config{Layout: l2Layout, Ways: 8, WriteAllocate: true})
}

func read(a uint64) trace.Access  { return trace.Access{Addr: addr.Addr(a), Kind: trace.Read} }
func write(a uint64) trace.Access { return trace.Access{Addr: addr.Addr(a), Kind: trace.Write} }
func fetch(a uint64) trace.Access { return trace.Access{Addr: addr.Addr(a), Kind: trace.Fetch} }

func TestNewRequiresL1D(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil L1D accepted")
	}
	if _, err := New(Config{L1D: nil, L2: nil}); err == nil {
		t.Error("empty config accepted")
	}
}

func TestCycleAccounting(t *testing.T) {
	h := mustNew(Config{L1D: newL1(), L2: newL2()})
	// Cold miss: L1 probe (1) + L2 penalty (10) + memory (100) = 111.
	if c := h.Access(read(0x40)); c != 111 {
		t.Errorf("cold miss cycles = %v, want 111", c)
	}
	// L1 hit: 1 cycle.
	if c := h.Access(read(0x40)); c != 1 {
		t.Errorf("hit cycles = %v, want 1", c)
	}
	// Conflicting block: L1 miss, L2 hit (it was filled before? no — new
	// block): L1(1) + L2 penalty(10) + memory(100).
	if c := h.Access(read(0x40 + 0x8000)); c != 111 {
		t.Errorf("second cold miss = %v", c)
	}
	// Original block evicted from L1 but still in L2: 1 + 10 = 11.
	if c := h.Access(read(0x40)); c != 11 {
		t.Errorf("L2 hit cycles = %v, want 11", c)
	}
	if h.Accesses != 4 {
		t.Errorf("Accesses = %d", h.Accesses)
	}
	if got := h.AverageAccessTime(); got != (111+1+111+11)/4.0 {
		t.Errorf("AverageAccessTime = %v", got)
	}
}

func TestNoL2GoesToMemory(t *testing.T) {
	h := mustNew(Config{L1D: newL1()})
	if c := h.Access(read(0)); c != 111 {
		t.Errorf("missing-L2 cold miss = %v, want 111", c)
	}
	if p := h.EffectiveMissPenalty(); p != 110 {
		t.Errorf("EffectiveMissPenalty = %v, want 110", p)
	}
}

func TestSplitL1Routing(t *testing.T) {
	l1d, l1i := newL1(), newL1()
	h := mustNew(Config{L1D: l1d, L1I: l1i, L2: newL2()})
	h.Access(fetch(0x100))
	h.Access(read(0x200))
	if l1i.Counters().Accesses != 1 || l1d.Counters().Accesses != 1 {
		t.Errorf("routing: L1I=%d L1D=%d", l1i.Counters().Accesses, l1d.Counters().Accesses)
	}
	// Without an L1I, fetches go to L1D.
	h2 := mustNew(Config{L1D: newL1()})
	h2.Access(fetch(0x100))
	if h2.L1D().Counters().Accesses != 1 {
		t.Error("unified routing failed")
	}
}

func TestWritebackReachesL2(t *testing.T) {
	l2 := newL2()
	h := mustNew(Config{L1D: newL1(), L2: l2})
	h.Access(write(0x40))         // dirty in L1
	h.Access(read(0x40 + 0x8000)) // evicts dirty block → writeback to L2
	// The written-back block must now hit in L2.
	if c := h.Access(read(0x40)); c != 11 {
		t.Errorf("read after writeback = %v cycles, want 11 (L2 hit)", c)
	}
}

func TestSecondaryProbeChargedOnMiss(t *testing.T) {
	// A model whose misses performed a secondary probe pays one extra cycle.
	m := &fakeModel{res: cache.AccessResult{Hit: false, SecondaryProbe: true}}
	h := mustNew(Config{L1D: m})
	if c := h.Access(read(0)); c != 112 {
		t.Errorf("secondary-probe miss = %v, want 112", c)
	}
}

func TestEffectiveMissPenaltyTracksL2(t *testing.T) {
	l2 := newL2()
	h := mustNew(Config{L1D: newL1(), L2: l2})
	// All L1 misses also miss in L2 initially: penalty ≈ 10 + 1.0×100.
	h.Access(read(0))
	if p := h.EffectiveMissPenalty(); p != 110 {
		t.Errorf("penalty after L2 miss = %v", p)
	}
	// Make L2 hits dominate.
	for i := 0; i < 99; i++ {
		h.Access(read(0x8000))
		h.Access(read(0))
	}
	if p := h.EffectiveMissPenalty(); p > 15 {
		t.Errorf("penalty with warm L2 = %v, want near 10", p)
	}
}

func TestHierarchyReset(t *testing.T) {
	h := mustNew(Config{L1D: newL1(), L1I: newL1(), L2: newL2()})
	h.Access(read(0))
	h.Access(fetch(4))
	h.Reset()
	if h.Cycles != 0 || h.Accesses != 0 || h.L1DHitCycles != 0 {
		t.Error("cycle counters survived Reset")
	}
	if h.L1D().Counters().Accesses != 0 || h.L2().Counters().Accesses != 0 {
		t.Error("cache counters survived Reset")
	}
}

func TestRunAndMeasuredAMATAgree(t *testing.T) {
	h := mustNew(Config{L1D: newL1(), L2: newL2()})
	var tr trace.Trace
	for i := 0; i < 5000; i++ {
		tr = append(tr, read(uint64(i*97)%(1<<16)))
	}
	avg := h.Run(tr)
	// Reconstruct via amatMeasured with the hierarchy's effective penalty.
	ctr := h.L1D().Counters()
	// Effective penalty must be derived from actual L2 behaviour on misses.
	// We verify only coarse agreement (same cycle budget split).
	manual := amatMeasured(h.L1DHitCycles, ctr, DefaultLatencies, h.EffectiveMissPenalty())
	if avg < 1 || manual < 1 {
		t.Fatalf("degenerate AMATs: %v %v", avg, manual)
	}
	if diff := avg - manual; diff > 2 || diff < -2 {
		t.Errorf("measured %v vs reconstructed %v diverge", avg, manual)
	}
}

// fakeModel returns a fixed result for every access.
type fakeModel struct {
	res cache.AccessResult
	ctr cache.Counters
}

func (f *fakeModel) Name() string { return "fake" }
func (f *fakeModel) Sets() int    { return 1 }
func (f *fakeModel) Access(trace.Access) cache.AccessResult {
	f.ctr.Add(f.res)
	return f.res
}
func (f *fakeModel) Counters() cache.Counters { return f.ctr }
func (f *fakeModel) PerSet() cache.PerSet     { return cache.NewPerSet(1) }
func (f *fakeModel) Reset()                   { f.ctr = cache.Counters{} }
