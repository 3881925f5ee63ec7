package smt

import (
	"testing"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/assoc"
	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/indexing"
	"cacheuniformity/internal/trace"
	"cacheuniformity/internal/workload"
)

var l32k = addr.MustLayout(32, 1024, 32)

func acc(a uint64, th uint8) trace.Access {
	return trace.Access{Addr: addr.Addr(a), Kind: trace.Read, Thread: th}
}

func TestSharedIndexCacheValidation(t *testing.T) {
	if _, err := NewSharedIndexCache(l32k, nil); err == nil {
		t.Error("empty funcs accepted")
	}
	if _, err := NewSharedIndexCache(l32k, []indexing.Func{nil}); err == nil {
		t.Error("nil func accepted")
	}
	big, _ := indexing.NewBitSelection("big", []uint{5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	if _, err := NewSharedIndexCache(l32k, []indexing.Func{big}); err == nil {
		t.Error("oversized func accepted")
	}
	if s, err := NewSharedIndexCache(l32k, nil); err == nil {
		t.Errorf("nil func slice accepted: %v", s)
	}
}

func TestSharedIndexCachePerThreadMapping(t *testing.T) {
	mod := indexing.NewModulo(l32k)
	om := indexing.MustOddMultiplier(l32k, 21)
	s := mustSharedIndexCache(l32k, []indexing.Func{mod, om})
	// Same address, different threads → potentially different sets.
	a := l32k.Compose(3, 5, 0) // tag 3, index 5
	s.Access(acc(uint64(a), 0))
	s.Access(acc(uint64(a), 1))
	ps := s.PerSet()
	if ps.Accesses[mod.Index(a)] == 0 || ps.Accesses[om.Index(a)] == 0 {
		t.Error("per-thread mappings not applied")
	}
	if mod.Index(a) == om.Index(a) {
		t.Fatal("test needs distinct mappings")
	}
	// Thread beyond funcs uses funcs[0].
	before := s.PerSet().Accesses[mod.Index(a)]
	s.Access(acc(uint64(a), 7))
	if got := s.PerSet().Accesses[mod.Index(a)]; got != before+1 {
		t.Error("overflow thread did not use funcs[0]")
	}
}

func TestSharedIndexCacheResolvesCrossThreadConflicts(t *testing.T) {
	// Two threads whose hot blocks collide under modulo indexing: with
	// per-thread multipliers the collision disappears (Figure 13's
	// mechanism).
	mkTrace := func() trace.Trace {
		var tr trace.Trace
		for i := 0; i < 200; i++ {
			// Thread 0 hot block and thread 1 hot block share index bits
			// but differ in tag.
			tr = append(tr, acc(0x10000, 0), acc(0x30000, 1))
		}
		return tr
	}
	same := mustSharedIndexCache(l32k, []indexing.Func{indexing.NewModulo(l32k), indexing.NewModulo(l32k)})
	mixed := mustSharedIndexCache(l32k, []indexing.Func{
		indexing.MustOddMultiplier(l32k, 9),
		indexing.MustOddMultiplier(l32k, 21),
	})
	sc := cache.Run(same, mkTrace())
	mc := cache.Run(mixed, mkTrace())
	if sc.Misses <= mc.Misses {
		t.Errorf("modulo/modulo misses %d <= mixed multipliers %d", sc.Misses, mc.Misses)
	}
	if mc.Misses > 4 {
		t.Errorf("mixed multipliers still missing %d times", mc.Misses)
	}
}

func TestPartitionedCacheIsolation(t *testing.T) {
	p := mustPartitionedCache(l32k, 2)
	// Thread 0 and thread 1 touching the same address use different sets.
	p.Access(acc(0x40, 0))
	p.Access(acc(0x40, 1))
	ps := p.PerSet()
	lo, hi := 0, 0
	for s := 0; s < 512; s++ {
		lo += int(ps.Accesses[s])
	}
	for s := 512; s < 1024; s++ {
		hi += int(ps.Accesses[s])
	}
	if lo != 1 || hi != 1 {
		t.Errorf("partition traffic split = %d/%d", lo, hi)
	}
	// Each thread's conflicting pair still conflicts inside its partition.
	r := p.Access(acc(0x40+0x4000, 0)) // 512 partition sets × 32B = 16 KiB span
	if r.Hit || !r.Evicted {
		t.Errorf("intra-partition conflict not modelled: %+v", r)
	}
}

func TestPartitionedCacheValidation(t *testing.T) {
	if _, err := NewPartitionedCache(l32k, 3); err == nil {
		t.Error("non-dividing thread count accepted")
	}
	if _, err := NewPartitionedCache(l32k, 0); err == nil {
		t.Error("zero threads accepted")
	}
	if p, err := NewPartitionedCache(l32k, -2); err == nil {
		t.Errorf("negative thread count accepted: %v", p)
	}
}

func TestAdaptivePartitionedSheltersAcrossPartitions(t *testing.T) {
	ap, err := NewAdaptivePartitioned(l32k, 2, assoc.AdaptiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Thread 0 hammers a conflict pair inside its half; thread 1 is idle.
	// The static partition thrashes; the adaptive tables shelter the
	// victim in thread 1's cold half.
	var tr trace.Trace
	for i := 0; i < 300; i++ {
		tr = append(tr, acc(0, 0), acc(0x4000, 0)) // same partition set
	}
	actr := cache.Run(ap, tr)

	part := mustPartitionedCache(l32k, 2)
	pctr := cache.Run(part, tr)
	if actr.Misses >= pctr.Misses {
		t.Errorf("adaptive partitioned misses %d >= static %d", actr.Misses, pctr.Misses)
	}
	if actr.SecondaryHits == 0 {
		t.Error("no OUT hits recorded")
	}
}

func TestAdaptivePartitionedValidation(t *testing.T) {
	if _, err := NewAdaptivePartitioned(l32k, 3, assoc.AdaptiveConfig{}); err == nil {
		t.Error("non-dividing thread count accepted")
	}
}

func TestSMTWorkloadMixEndToEnd(t *testing.T) {
	// Full Figure-13-style run: two benchmarks round-robin interleaved,
	// conventional vs per-thread odd-multiplier indexing.
	t1 := workload.MustLookup("fft").Generate(1, 30000)
	t2 := workload.MustLookup("sha").Generate(2, 30000)
	mix, err := trace.CollectBatch(trace.RoundRobinBatch(t1.NewBatchReader(), t2.NewBatchReader()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 60000 {
		t.Fatalf("mix length %d", len(mix))
	}
	base := mustSharedIndexCache(l32k, []indexing.Func{indexing.NewModulo(l32k), indexing.NewModulo(l32k)})
	mixed := mustSharedIndexCache(l32k, []indexing.Func{
		indexing.MustOddMultiplier(l32k, 9),
		indexing.MustOddMultiplier(l32k, 21),
	})
	bc := cache.Run(base, mix)
	mc := cache.Run(mixed, mix)
	// Both fft and sha are conflict benchmarks: per-thread multipliers must
	// cut misses substantially.
	if mc.Misses >= bc.Misses {
		t.Errorf("mixed-index misses %d >= baseline %d", mc.Misses, bc.Misses)
	}
}

func TestSharedIndexCacheReset(t *testing.T) {
	s := mustSharedIndexCache(l32k, []indexing.Func{indexing.NewModulo(l32k)})
	s.Access(acc(0, 0))
	s.Reset()
	if s.Counters().Accesses != 0 {
		t.Error("counters survived Reset")
	}
	if r := s.Access(acc(0, 0)); r.Hit {
		t.Error("contents survived Reset")
	}
}

func TestSharedCacheAccessBatchAllocatesNothing(t *testing.T) {
	tr := workload.MustLookup("fft").Generate(1, 2*trace.DefaultBatch+100)
	for i := range tr {
		tr[i].Thread = uint8(i % 3)
	}
	for _, m := range []*SharedCache{
		mustSharedIndexCache(l32k, []indexing.Func{indexing.NewModulo(l32k), indexing.MustOddMultiplier(l32k, 21)}),
		mustPartitionedCache(l32k, 2),
	} {
		m.AccessBatch(tr) // warm
		if n := testing.AllocsPerRun(10, func() { m.AccessBatch(tr) }); n != 0 {
			t.Errorf("%s: warm AccessBatch allocates %v times per call", m.Name(), n)
		}
	}
}
