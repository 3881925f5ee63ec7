package cache

import (
	"testing"

	"cacheuniformity/internal/trace"
)

func TestVictimCacheRescuesConflicts(t *testing.T) {
	primary := mustNew(Config{Layout: l32k, Ways: 1, WriteAllocate: true})
	v := mustVictim(primary, 4)
	if v.Sets() != 1024 {
		t.Errorf("Sets = %d", v.Sets())
	}
	// Alternating conflict pair: after warmup every access hits the buffer.
	a, b := uint64(0), uint64(0x8000)
	var tr trace.Trace
	for i := 0; i < 50; i++ {
		tr = append(tr, read(a), read(b))
	}
	ctr := Run(v, tr)
	if ctr.Misses > 2 {
		t.Errorf("victim cache missed %d times, want 2 cold misses", ctr.Misses)
	}
	if ctr.SecondaryHits == 0 {
		t.Error("no secondary hits recorded")
	}
	// Both blocks live in set 0, and a buffer hit is a hit there.
	if ps := v.PerSet(); ps.Accesses[0] != 100 || ps.Hits[0] != ctr.Hits || ps.Misses[0] != ctr.Misses {
		t.Errorf("set 0 counts %d/%d/%d, counters %+v", ps.Accesses[0], ps.Hits[0], ps.Misses[0], ctr)
	}
	// A plain DM cache thrashes on the same trace.
	dm := mustNew(Config{Layout: l32k, Ways: 1, WriteAllocate: true})
	if plain := Run(dm, tr); plain.Misses <= ctr.Misses {
		t.Errorf("victim cache (%d misses) not better than DM (%d)", ctr.Misses, plain.Misses)
	}
}

func TestVictimCacheLatency(t *testing.T) {
	primary := mustNew(Config{Layout: l32k, Ways: 1, WriteAllocate: true})
	v := mustVictim(primary, 2)
	v.Access(read(0))
	v.Access(read(0x8000)) // evicts block 0 into the buffer
	r := v.Access(read(0))
	if !r.Hit || !r.SecondaryHit || r.HitCycles != VictimHitCycles {
		t.Errorf("buffer hit: %+v", r)
	}
	// Direct hits cost one cycle.
	r = v.Access(read(0))
	if !r.Hit || r.SecondaryHit || r.HitCycles != 1 {
		t.Errorf("direct hit: %+v", r)
	}
}

func TestVictimCacheOverflowEviction(t *testing.T) {
	primary := mustNew(Config{Layout: l32k, Ways: 1, WriteAllocate: true})
	v := mustVictim(primary, 1)
	// Three conflicting blocks cycle through one buffer entry.
	v.Access(read(0))
	v.Access(read(0x8000))  // 0 → buffer
	v.Access(read(0x10000)) // 0x8000 → buffer (0 falls out)
	r := v.Access(read(0))
	if r.Hit {
		t.Error("block should have fallen out of a 1-entry buffer")
	}
}

func TestVictimCacheResetAndName(t *testing.T) {
	primary := mustNew(Config{Layout: l32k, Ways: 1, WriteAllocate: true})
	v := mustVictim(primary, 2)
	if v.Name() != primary.Name()+"+victim" {
		t.Errorf("Name = %q", v.Name())
	}
	v.Access(read(0))
	v.Access(read(0x8000))
	v.Reset()
	if v.Counters().Accesses != 0 {
		t.Error("counters survived Reset")
	}
	if r := v.Access(read(0)); r.Hit {
		t.Error("contents survived Reset")
	}
}

func TestVictimCacheRejectsBadConfig(t *testing.T) {
	primary := mustNew(Config{Layout: l32k, Ways: 1, WriteAllocate: true})
	if v, err := NewVictimCache(primary, 0); err == nil {
		t.Errorf("NewVictimCache(0 entries) = %v, want error", v)
	}
	if v, err := NewVictimCache(primary, -1); err == nil {
		t.Errorf("NewVictimCache(-1 entries) = %v, want error", v)
	}
	if v, err := NewVictimCache(nil, 8); err == nil {
		t.Errorf("NewVictimCache(nil primary) = %v, want error", v)
	}
}
