package cache

import (
	"testing"
	"testing/quick"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/rng"
	"cacheuniformity/internal/trace"
)

func TestFullyAssociativeBasics(t *testing.T) {
	f := mustFully(l32k, 4, nil)
	if f.Name() != "fully_associative" || f.Sets() != 1 {
		t.Errorf("identity: %q %d", f.Name(), f.Sets())
	}
	// Any 4 blocks fit regardless of address: no conflict misses.
	addrs := []uint64{0, 0x8000, 0x10000, 0x18000}
	for _, a := range addrs {
		f.Access(read(a))
	}
	for _, a := range addrs {
		if r := f.Access(read(a)); !r.Hit {
			t.Errorf("block %#x missed in FA cache", a)
		}
	}
	ctr := f.Counters()
	if ctr.Misses != 4 || ctr.Hits != 4 {
		t.Errorf("counters: %+v", ctr)
	}
	ps := f.PerSet()
	if ps.Accesses[0] != 8 {
		t.Errorf("pseudo-set accesses = %d", ps.Accesses[0])
	}
}

func TestFullyAssociativeEvictsLRU(t *testing.T) {
	f := mustFully(l32k, 2, LRU{})
	f.Access(read(0))
	f.Access(write(0x8000))
	f.Access(read(0)) // touch 0; LRU is 0x8000
	r := f.Access(read(0x10000))
	if !r.Evicted || r.EvictedBlock != l32k.Block(0x8000) || !r.Writeback {
		t.Errorf("eviction: %+v", r)
	}
}

func TestFullyAssociativeReset(t *testing.T) {
	f := mustFully(l32k, 2, nil)
	f.Access(read(0))
	f.Reset()
	if f.Counters().Accesses != 0 {
		t.Error("counters survived Reset")
	}
	if r := f.Access(read(0)); r.Hit {
		t.Error("contents survived Reset")
	}
}

func TestFullyAssociativeRejectsBadConfig(t *testing.T) {
	if f, err := NewFullyAssociative(l32k, 0, nil); err == nil {
		t.Errorf("NewFullyAssociative(capacity 0) = %v, want error", f)
	}
	if f, err := NewFullyAssociative(l32k, -4, nil); err == nil {
		t.Errorf("NewFullyAssociative(capacity -4) = %v, want error", f)
	}
	if f, err := NewFullyAssociative(l32k, 3, PLRU{}); err == nil {
		t.Errorf("NewFullyAssociative(PLRU, 3 lines) = %v, want error", f)
	}
}

func TestOptMissesBasics(t *testing.T) {
	// Classic Belady example: with capacity 2, OPT on a,b,c,a,b keeps a,b.
	blocks := []uint64{1, 2, 3, 1, 2}
	if got := optMisses(blocks, 2); got != 4 {
		t.Errorf("OPT misses = %d, want 4", got)
	}
	// Capacity ≥ unique blocks → cold misses only.
	if got := optMisses(blocks, 3); got != 3 {
		t.Errorf("OPT with ample capacity = %d, want 3", got)
	}
	if got := optMisses(nil, 2); got != 0 {
		t.Errorf("OPT of empty trace = %d", got)
	}
	if got := optMisses(blocks, 0); got != 5 {
		t.Errorf("OPT with zero capacity = %d, want every access a miss", got)
	}
}

func TestOptNeverWorseThanLRU(t *testing.T) {
	// Property: Belady's OPT is a lower bound on LRU misses for the same
	// capacity — the inequality the paper's "theoretical lower bound"
	// statement rests on.
	f := func(seed uint64, capSel uint8) bool {
		src := rng.New(seed)
		capacity := 1 + int(capSel%8)
		blocks := make([]uint64, 400)
		var tr trace.Trace
		for i := range blocks {
			b := uint64(src.Intn(20))
			blocks[i] = b
			tr = append(tr, read(b*32))
		}
		fa := mustFully(l32k, capacity, LRU{})
		lru := Run(fa, tr)
		return optMisses(blocks, capacity) <= lru.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestOptMatchesUniqueWhenBig(t *testing.T) {
	f := func(raw []uint8) bool {
		blocks := make([]uint64, len(raw))
		uniq := map[uint64]bool{}
		for i, r := range raw {
			blocks[i] = uint64(r)
			uniq[uint64(r)] = true
		}
		return optMisses(blocks, 300) == uint64(len(uniq))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlockSequence(t *testing.T) {
	tr := trace.Trace{read(0), read(31), read(32)}
	seq := blockSequence(tr, l32k)
	if len(seq) != 3 || seq[0] != 0 || seq[1] != 0 || seq[2] != 1 {
		t.Errorf("BlockSequence = %v", seq)
	}
}

func TestFullyAssociativeIsLowerEnvelope(t *testing.T) {
	// A fully-associative LRU cache of equal capacity should not miss more
	// than a direct-mapped cache on a conflict-heavy trace.
	var tr trace.Trace
	for rep := 0; rep < 30; rep++ {
		for i := uint64(0); i < 8; i++ {
			tr = append(tr, read(i*0x8000))
		}
	}
	dm := mustNew(Config{Layout: l32k, Ways: 1, WriteAllocate: true})
	fa := mustFully(l32k, 1024, LRU{})
	dmc, fac := Run(dm, tr), Run(fa, tr)
	if fac.Misses > dmc.Misses {
		t.Errorf("FA misses %d > DM misses %d", fac.Misses, dmc.Misses)
	}
	if fac.Misses != 8 {
		t.Errorf("FA misses = %d, want 8 cold", fac.Misses)
	}
}

var _ = addr.Addr(0) // keep import if helpers change

// optMisses returns the miss count of a fully-associative cache of the
// given capacity (in blocks) under Belady's optimal offline replacement —
// the paper's "perfect replacement policy" lower bound, and the reference
// the LRU models are checked against.  The input is the
// block-address sequence of the trace.
func optMisses(blocks []uint64, capacity int) uint64 {
	if capacity <= 0 {
		return uint64(len(blocks))
	}
	// next[i] = position of the next use of blocks[i] after i (len = never).
	n := len(blocks)
	next := make([]int, n)
	last := make(map[uint64]int, capacity*2)
	for i := n - 1; i >= 0; i-- {
		if j, ok := last[blocks[i]]; ok {
			next[i] = j
		} else {
			next[i] = n
		}
		last[blocks[i]] = i
	}

	resident := make(map[uint64]int, capacity) // block → next use position
	var misses uint64
	for i, b := range blocks {
		if _, ok := resident[b]; ok {
			resident[b] = next[i]
			continue
		}
		misses++
		if len(resident) >= capacity {
			// Evict the block whose next use is farthest in the future.
			victim, far := uint64(0), -1
			for blk, nu := range resident {
				if nu > far {
					victim, far = blk, nu
				}
			}
			delete(resident, victim)
		}
		resident[b] = next[i]
	}
	return misses
}

// blockSequence extracts the block-address sequence of a trace under the
// layout, the input format optMisses expects.
func blockSequence(tr trace.Trace, l addr.Layout) []uint64 {
	out := make([]uint64, len(tr))
	for i, a := range tr {
		out[i] = l.Block(a.Addr)
	}
	return out
}
