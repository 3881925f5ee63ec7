package cache

import (
	"testing"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/indexing"
	"cacheuniformity/internal/trace"
)

var l32k = addr.MustLayout(32, 1024, 32) // the paper's 32KB DM geometry

func read(a uint64) trace.Access  { return trace.Access{Addr: addr.Addr(a), Kind: trace.Read} }
func write(a uint64) trace.Access { return trace.Access{Addr: addr.Addr(a), Kind: trace.Write} }

func dmCache(t *testing.T) *Cache {
	t.Helper()
	c, err := New(Config{Layout: l32k, Ways: 1, WriteAllocate: true})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	// Index function with more sets than the layout.
	big, _ := indexing.NewBitSelection("big", []uint{5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	bad := []struct {
		name string
		cfg  Config
	}{
		{"zero ways", Config{Layout: l32k, Ways: 0}},
		{"negative ways", Config{Layout: l32k, Ways: -1}},
		{"oversized index function", Config{Layout: l32k, Ways: 1, Index: big}},
		{"PLRU with non-power-of-two ways", Config{Layout: l32k, Ways: 3, Replacement: PLRU{}}},
	}
	for _, tc := range bad {
		if c, err := New(tc.cfg); err == nil {
			t.Errorf("New(%s) = %v, want error", tc.name, c)
		}
	}
}

func TestDefaultNameAndAccessors(t *testing.T) {
	c := dmCache(t)
	if c.Name() != "1024x32B/1way/modulo" {
		t.Errorf("Name = %q", c.Name())
	}
	if c.Sets() != 1024 || c.Ways() != 1 {
		t.Errorf("Sets/Ways = %d/%d", c.Sets(), c.Ways())
	}
	if c.Index().Name() != "modulo" {
		t.Errorf("Index = %q", c.Index().Name())
	}
	if c.Layout() != l32k {
		t.Errorf("Layout = %+v", c.Layout())
	}
	named := mustNew(Config{Name: "L1D", Layout: l32k, Ways: 1, WriteAllocate: true})
	if named.Name() != "L1D" {
		t.Errorf("custom name = %q", named.Name())
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := dmCache(t)
	if r := c.Access(read(0x1000)); r.Hit {
		t.Error("cold access hit")
	}
	if r := c.Access(read(0x1000)); !r.Hit || r.HitCycles != 1 {
		t.Errorf("second access: %+v", r)
	}
	// Same block, different byte.
	if r := c.Access(read(0x101F)); !r.Hit {
		t.Error("same-block access missed")
	}
	ctr := c.Counters()
	if ctr.Accesses != 3 || ctr.Hits != 2 || ctr.Misses != 1 || ctr.PrimaryHits != 2 {
		t.Errorf("counters: %+v", ctr)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := dmCache(t)
	// Two addresses exactly one cache-span apart conflict in a DM cache.
	a, b := uint64(0x0000), uint64(0x8000) // 32KB apart
	for i := 0; i < 10; i++ {
		c.Access(read(a))
		c.Access(read(b))
	}
	ctr := c.Counters()
	if ctr.Hits != 0 {
		t.Errorf("conflicting pair produced %d hits in DM cache", ctr.Hits)
	}
	if ctr.Evictions != 19 { // 20 misses; only the first fill finds the set empty
		t.Errorf("evictions = %d, want 19", ctr.Evictions)
	}
}

func TestTwoWayRemovesConflict(t *testing.T) {
	c := mustNew(Config{Layout: addr.MustLayout(32, 512, 32), Ways: 2, WriteAllocate: true})
	a, b := uint64(0x0000), uint64(0x8000)
	for i := 0; i < 10; i++ {
		c.Access(read(a))
		c.Access(read(b))
	}
	ctr := c.Counters()
	if ctr.Misses != 2 {
		t.Errorf("2-way misses = %d, want 2 (cold only)", ctr.Misses)
	}
}

func TestLRUOrder(t *testing.T) {
	// 2-way set; access A, B, A, then C: LRU must evict B.
	c := mustNew(Config{Layout: addr.MustLayout(32, 512, 32), Ways: 2, WriteAllocate: true})
	const span = 512 * 32
	A, B, C := uint64(0), uint64(span), uint64(2*span)
	c.Access(read(A))
	c.Access(read(B))
	c.Access(read(A))
	r := c.Access(read(C))
	if !r.Evicted || r.EvictedBlock != l32k.Block(addr.Addr(B)) {
		t.Errorf("LRU evicted %+v, want block of B", r)
	}
	if rr := c.Access(read(A)); !rr.Hit {
		t.Error("A evicted despite recency")
	}
}

func TestFIFOOrder(t *testing.T) {
	// FIFO ignores the re-reference to A and evicts A (oldest fill).
	c := mustNew(Config{Layout: addr.MustLayout(32, 512, 32), Ways: 2, Replacement: FIFO{}, WriteAllocate: true})
	const span = 512 * 32
	A, B, C := uint64(0), uint64(span), uint64(2*span)
	c.Access(read(A))
	c.Access(read(B))
	c.Access(read(A)) // hit; FIFO unaffected
	r := c.Access(read(C))
	if !r.Evicted || r.EvictedBlock != l32k.Block(addr.Addr(A)) {
		t.Errorf("FIFO evicted block %#x, want block of A", r.EvictedBlock)
	}
}

func TestRandomDeterministic(t *testing.T) {
	mk := func() *Cache {
		return mustNew(Config{Layout: addr.MustLayout(32, 16, 32), Ways: 2,
			Replacement: Random{Seed: 7}, WriteAllocate: true})
	}
	c1, c2 := mk(), mk()
	const span = 16 * 32
	for i := 0; i < 500; i++ {
		a := uint64(i%5) * span
		r1, r2 := c1.Access(read(a)), c2.Access(read(a))
		if r1.Hit != r2.Hit || r1.EvictedBlock != r2.EvictedBlock {
			t.Fatalf("random caches diverged at access %d", i)
		}
	}
}

func TestPLRUBasics(t *testing.T) {
	c := mustNew(Config{Layout: addr.MustLayout(32, 16, 32), Ways: 4,
		Replacement: PLRU{}, WriteAllocate: true})
	const span = 16 * 32
	// Fill 4 ways, re-touch first three, insert 5th block: the 4th should go.
	for i := uint64(0); i < 4; i++ {
		c.Access(read(i * span))
	}
	for i := uint64(0); i < 3; i++ {
		c.Access(read(i * span))
	}
	r := c.Access(read(4 * span))
	if !r.Evicted {
		t.Fatal("no eviction from full set")
	}
	// PLRU approximates LRU: the evicted block must not be one of the two
	// most recently touched (blocks 1 and 2).
	got := r.EvictedBlock
	if got == l32k.Block(addr.Addr(1*span)) || got == l32k.Block(addr.Addr(2*span)) {
		t.Errorf("PLRU evicted recently-touched block %#x", got)
	}
}

func TestPLRUNonPow2Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PLRU with 3 ways did not panic")
		}
	}()
	PLRU{}.NewSet(3)
}

func TestWriteAllocateAndWriteback(t *testing.T) {
	c := dmCache(t)
	c.Access(write(0x1000)) // miss, fill dirty
	r := c.Access(read(0x1000 + 0x8000))
	if !r.Evicted || !r.Writeback {
		t.Errorf("dirty eviction: %+v", r)
	}
	if c.Counters().Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Counters().Writebacks)
	}
	// Clean eviction must not write back.
	c.Reset()
	c.Access(read(0x1000))
	r = c.Access(read(0x1000 + 0x8000))
	if !r.Evicted || r.Writeback {
		t.Errorf("clean eviction: %+v", r)
	}
}

func TestWriteNoAllocate(t *testing.T) {
	c := mustNew(Config{Layout: l32k, Ways: 1, WriteAllocate: false})
	c.Access(write(0x40))
	if r := c.Access(read(0x40)); r.Hit {
		t.Error("write-no-allocate filled the cache")
	}
	// A read fill followed by a write hit must still set dirty.
	c.Access(read(0x80))
	c.Access(write(0x80))
	r := c.Access(read(0x80 + 0x8000))
	if !r.Writeback {
		t.Error("dirty bit lost under write-no-allocate")
	}
}

func TestPerSetAttribution(t *testing.T) {
	c := dmCache(t)
	c.Access(read(0))      // set 0 miss
	c.Access(read(0))      // set 0 hit
	c.Access(read(32))     // set 1 miss
	c.Access(read(0x8000)) // set 0 miss (conflict)
	ps := c.PerSet()
	if ps.Accesses[0] != 3 || ps.Hits[0] != 1 || ps.Misses[0] != 2 {
		t.Errorf("set 0: %d/%d/%d", ps.Accesses[0], ps.Hits[0], ps.Misses[0])
	}
	if ps.Accesses[1] != 1 || ps.Misses[1] != 1 {
		t.Errorf("set 1: %d/%d", ps.Accesses[1], ps.Misses[1])
	}
	// Snapshot isolation.
	ps.Accesses[0] = 999
	if c.PerSet().Accesses[0] == 999 {
		t.Error("PerSet returned live state")
	}
}

func TestPerSetTotalsMatchCounters(t *testing.T) {
	c := mustNew(Config{Layout: l32k, Ways: 2, WriteAllocate: true})
	for i := 0; i < 5000; i++ {
		c.Access(read(uint64(i*67) % (1 << 20)))
	}
	ps, ctr := c.PerSet(), c.Counters()
	var acc, hits, misses uint64
	for s := range ps.Accesses {
		acc += ps.Accesses[s]
		hits += ps.Hits[s]
		misses += ps.Misses[s]
	}
	if acc != ctr.Accesses || hits != ctr.Hits || misses != ctr.Misses {
		t.Errorf("per-set sums %d/%d/%d vs counters %d/%d/%d",
			acc, hits, misses, ctr.Accesses, ctr.Hits, ctr.Misses)
	}
}

func TestReset(t *testing.T) {
	c := dmCache(t)
	c.Access(read(0x40))
	c.Reset()
	if c.Counters().Accesses != 0 {
		t.Error("counters survived Reset")
	}
	if r := c.Access(read(0x40)); r.Hit {
		t.Error("contents survived Reset")
	}
}

func TestLookupDoesNotDisturb(t *testing.T) {
	c := dmCache(t)
	c.Access(read(0x40))
	before := c.Counters()
	if !c.Lookup(0x40) {
		t.Error("Lookup missed resident block")
	}
	if c.Lookup(0x8000 + 0x40) {
		t.Error("Lookup hit absent block")
	}
	if c.Counters() != before {
		t.Error("Lookup changed counters")
	}
}

func TestPrimeModuloFragmentationInCache(t *testing.T) {
	pm := indexing.NewPrimeModulo(l32k)
	c := mustNew(Config{Layout: l32k, Ways: 1, Index: pm, WriteAllocate: true})
	for i := uint64(0); i < 100000; i++ {
		c.Access(read(i * 32))
	}
	ps := c.PerSet()
	for s := 1021; s < 1024; s++ {
		if ps.Accesses[s] != 0 {
			t.Errorf("fragmented set %d was accessed", s)
		}
	}
	if c.Utilization() >= 1 {
		t.Errorf("utilization = %v, want < 1 due to fragmentation", c.Utilization())
	}
}

func TestMissRateHitRate(t *testing.T) {
	var ctr Counters
	if ctr.MissRate() != 0 || ctr.HitRate() != 0 {
		t.Error("idle rates nonzero")
	}
	ctr = Counters{Accesses: 10, Hits: 7, Misses: 3}
	if ctr.MissRate() != 0.3 || ctr.HitRate() != 0.7 {
		t.Errorf("rates: %v/%v", ctr.MissRate(), ctr.HitRate())
	}
}

func TestRunAndRunBatched(t *testing.T) {
	tr := trace.Trace{read(0), read(0), read(32)}
	c := dmCache(t)
	ctr := Run(c, tr)
	if ctr.Accesses != 3 || ctr.Hits != 1 {
		t.Errorf("Run counters: %+v", ctr)
	}
	c.Reset()
	ctr, err := RunBatched(c, tr.NewBatchReader(), nil)
	if err != nil || ctr.Accesses != 3 || ctr.Hits != 1 {
		t.Errorf("RunBatched: %v %+v", err, ctr)
	}
}

func TestXORBeatsModuloOnPathologicalStride(t *testing.T) {
	// The canonical result the paper builds on: power-of-two strides
	// thrash a modulo-indexed DM cache but spread under XOR.
	mod := mustNew(Config{Layout: l32k, Ways: 1, WriteAllocate: true})
	xor := mustNew(Config{Layout: l32k, Ways: 1, Index: indexing.NewXOR(l32k), WriteAllocate: true})
	var tr trace.Trace
	for rep := 0; rep < 20; rep++ {
		for i := uint64(0); i < 64; i++ {
			tr = append(tr, read(i*0x8000)) // stride = cache size
		}
	}
	mc, xc := Run(mod, tr), Run(xor, tr)
	if mc.MissRate() < 0.99 {
		t.Fatalf("modulo should thrash: missrate %v", mc.MissRate())
	}
	if xc.MissRate() > 0.2 {
		t.Errorf("xor missrate = %v, want near cold-only", xc.MissRate())
	}
}
