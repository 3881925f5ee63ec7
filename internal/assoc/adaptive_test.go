package assoc

import (
	"slices"
	"testing"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/rng"
	"cacheuniformity/internal/trace"
)

func newAdaptive(t *testing.T) *AdaptiveCache {
	t.Helper()
	a, err := NewAdaptiveCache(l32k, nil, AdaptiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAdaptiveDefaultSizing(t *testing.T) {
	a := newAdaptive(t)
	if a.sht.capacity != 1024*3/8 {
		t.Errorf("SHT capacity = %d, want %d", a.sht.capacity, 1024*3/8)
	}
	if a.out.capacity != 1024*4/16 {
		t.Errorf("OUT capacity = %d, want %d", a.out.capacity, 1024*4/16)
	}
}

func TestAdaptiveConfigErrors(t *testing.T) {
	if _, err := NewAdaptiveCache(l32k, nil, AdaptiveConfig{SHTEntries: -1}); err == nil {
		t.Error("negative SHT accepted")
	}
	if _, err := NewAdaptiveCache(l32k, nil, AdaptiveConfig{SHTEntries: 2000}); err == nil {
		t.Error("oversized SHT accepted")
	}
	if _, err := NewAdaptiveCache(l32k, nil, AdaptiveConfig{OUTEntries: -3}); err == nil {
		t.Error("negative OUT accepted")
	}
	if a, err := NewAdaptiveCache(l32k, nil, AdaptiveConfig{OUTEntries: 5000}); err == nil {
		t.Errorf("oversized OUT accepted: %v", a)
	}
}

func TestAdaptiveBasicHit(t *testing.T) {
	a := newAdaptive(t)
	if r := a.Access(read(0x40)); r.Hit {
		t.Error("cold hit")
	}
	if r := a.Access(read(0x40)); !r.Hit || r.HitCycles != 1 {
		t.Errorf("direct hit: %+v", r)
	}
}

func TestAdaptiveShelterAndOUTHit(t *testing.T) {
	a := newAdaptive(t)
	x, y := uint64(0), uint64(0x8000) // conflict pair on set 0
	a.Access(read(x))                 // set 0 := x (MRU, protected)
	a.Access(read(y))                 // victim x is protected → sheltered; set 0 := y
	// x must still be findable through the OUT directory, at 3 cycles.
	r := a.Access(read(x))
	if !r.Hit || !r.SecondaryHit || r.HitCycles != AdaptiveOUTHitCycles {
		t.Fatalf("OUT hit: %+v", r)
	}
	// The swap moved x back to set 0 and sheltered y; y also hits via OUT.
	r = a.Access(read(y))
	if !r.Hit || !r.SecondaryHit {
		t.Fatalf("y after swap: %+v", r)
	}
	// Steady state: the pair coexists with zero misses.
	before := a.Counters().Misses
	for i := 0; i < 100; i++ {
		a.Access(read(x))
		a.Access(read(y))
	}
	if got := a.Counters().Misses - before; got != 0 {
		t.Errorf("adaptive cache still missing %d times on resident pair", got)
	}
}

func TestAdaptiveBeatsDirectMappedOnConflicts(t *testing.T) {
	var tr trace.Trace
	for i := 0; i < 200; i++ {
		for j := uint64(0); j < 4; j++ {
			tr = append(tr, read(j*0x8000)) // 4-way conflict on set 0
		}
	}
	a := newAdaptive(t)
	dm := mustCache(cache.Config{Layout: l32k, Ways: 1, WriteAllocate: true})
	ac, dc := cache.Run(a, tr), cache.Run(dm, tr)
	if ac.Misses >= dc.Misses {
		t.Errorf("adaptive misses %d >= DM misses %d", ac.Misses, dc.Misses)
	}
	if ac.Misses > 8 {
		t.Errorf("adaptive misses = %d, want near 4 cold", ac.Misses)
	}
}

func TestAdaptiveDisposableVictimNotSheltered(t *testing.T) {
	// With SHT capacity 1, accessing a second set ages the first out of
	// the SHT, so its line becomes disposable and a later conflict evicts
	// it outright (no OUT entry).
	a := mustAdaptiveCache(l32k, nil, AdaptiveConfig{SHTEntries: 1, OUTEntries: 4})
	x := uint64(0)      // set 0
	other := uint64(32) // set 1
	a.Access(read(x))
	a.Access(read(other)) // set 0 ages out of SHT; x becomes disposable
	r := a.Access(read(0x8000))
	if !r.Evicted || r.EvictedBlock != l32k.Block(addr.Addr(x)) {
		t.Fatalf("disposable victim not evicted: %+v", r)
	}
	if r2 := a.Access(read(x)); r2.Hit {
		t.Error("x still resident after disposable eviction")
	}
}

func TestAdaptiveOUTOverflowRecyclesLRU(t *testing.T) {
	a := mustAdaptiveCache(l32k, nil, AdaptiveConfig{SHTEntries: 8, OUTEntries: 1})
	// Shelter two different protected victims; the 1-entry OUT must recycle.
	a.Access(read(0))      // set 0
	a.Access(read(0x8000)) // shelters block 0 (OUT full)
	a.Access(read(32))     // set 1
	a.Access(read(0x8020)) // shelters block of 32, recycling OUT entry for 0
	if a.out.len() != 1 {
		t.Fatalf("OUT has %d entries, want 1", a.out.len())
	}
	// Block 0 lost its OUT entry: reaching it again must miss.
	if r := a.Access(read(0)); r.Hit {
		t.Error("recycled OUT entry still produced a hit")
	}
}

func TestAdaptivePerSetTotals(t *testing.T) {
	a := newAdaptive(t)
	for i := 0; i < 8000; i++ {
		a.Access(read(uint64(i*193) % (1 << 19)))
	}
	ctr := a.Counters()
	ps := a.PerSet()
	var acc, hits, misses uint64
	for s := range ps.Accesses {
		acc += ps.Accesses[s]
		hits += ps.Hits[s]
		misses += ps.Misses[s]
	}
	if acc != ctr.Accesses || hits != ctr.Hits || misses != ctr.Misses {
		t.Errorf("per-set sums %d/%d/%d vs %d/%d/%d", acc, hits, misses, ctr.Accesses, ctr.Hits, ctr.Misses)
	}
}

func TestAdaptiveReset(t *testing.T) {
	a := newAdaptive(t)
	a.Access(read(0))
	a.Access(read(0x8000))
	a.Reset()
	if a.Counters().Accesses != 0 || a.out.len() != 0 {
		t.Error("state survived Reset")
	}
	if r := a.Access(read(0)); r.Hit {
		t.Error("contents survived Reset")
	}
}

func TestAdaptiveWritebackThroughShelter(t *testing.T) {
	a := newAdaptive(t)
	a.Access(write(0)) // dirty block in set 0
	a.Access(read(0x8000))
	// The dirty block was sheltered, not evicted: no writeback yet.
	if a.Counters().Writebacks != 0 {
		t.Error("sheltered block counted as writeback")
	}
}

func TestLRUListTouch(t *testing.T) {
	l := newLRUList(2)
	if aged, ev := l.touch(1); ev {
		t.Errorf("evicted %d from non-full list", aged)
	}
	l.touch(2)
	// touching 1 again promotes it; no eviction
	if _, ev := l.touch(1); ev {
		t.Error("promotion evicted")
	}
	// inserting 3 evicts LRU = 2
	aged, ev := l.touch(3)
	if !ev || aged != 2 {
		t.Errorf("evicted (%d,%v), want (2,true)", aged, ev)
	}
	if !l.contains(1) || !l.contains(3) || l.contains(2) {
		t.Error("membership wrong after eviction")
	}
}

func TestOutDirBasics(t *testing.T) {
	o := newOutDir(2)
	o.insert(100, 5)
	o.insert(200, 6)
	if s, ok := o.lookup(100); !ok || s != 5 {
		t.Errorf("lookup(100) = %d,%v", s, ok)
	}
	// 100 is now MRU; inserting 300 evicts 200.
	evB, evS, ovf := o.insert(300, 7)
	if !ovf || evB != 200 || evS != 6 {
		t.Errorf("overflow = (%d,%d,%v)", evB, evS, ovf)
	}
	if _, ok := o.lookup(200); ok {
		t.Error("evicted entry still present")
	}
	o.remove(100)
	if _, ok := o.lookup(100); ok {
		t.Error("removed entry still present")
	}
	o.remove(100) // idempotent
	if o.len() != 1 {
		t.Errorf("len = %d, want 1", o.len())
	}
	// Re-insert with a new set updates in place.
	o.insert(300, 9)
	if s, _ := o.lookup(300); s != 9 {
		t.Errorf("update-in-place failed: %d", s)
	}
}

// mapOutDir is the map-backed OUT directory the flat table replaced, kept
// as the reference the table is checked against: the same node pool,
// recency list and free list, with a Go map from block to node.
type mapOutDir struct {
	entries map[uint64]int32
	nodes   []outNode
	head    int32
	tail    int32
	free    int32
}

func newMapOutDir(capacity int) *mapOutDir {
	o := &mapOutDir{entries: make(map[uint64]int32, capacity), nodes: make([]outNode, capacity)}
	for i := range o.nodes {
		o.nodes[i].next = int32(i + 1)
	}
	o.nodes[capacity-1].next = -1
	o.head, o.tail = -1, -1
	return o
}

func (o *mapOutDir) unlink(i int32) {
	p, n := o.nodes[i].prev, o.nodes[i].next
	if p == -1 {
		o.head = n
	} else {
		o.nodes[p].next = n
	}
	if n == -1 {
		o.tail = p
	} else {
		o.nodes[n].prev = p
	}
}

func (o *mapOutDir) pushFront(i int32) {
	o.nodes[i].prev = -1
	o.nodes[i].next = o.head
	if o.head != -1 {
		o.nodes[o.head].prev = i
	}
	o.head = i
	if o.tail == -1 {
		o.tail = i
	}
}

func (o *mapOutDir) lookup(block uint64) (int, bool) {
	i, ok := o.entries[block]
	if !ok {
		return 0, false
	}
	if o.head != i {
		o.unlink(i)
		o.pushFront(i)
	}
	return o.nodes[i].set, true
}

func (o *mapOutDir) insert(block uint64, set int) (evictedBlock uint64, evictedSet int, overflow bool) {
	if i, ok := o.entries[block]; ok {
		o.nodes[i].set = set
		if o.head != i {
			o.unlink(i)
			o.pushFront(i)
		}
		return 0, 0, false
	}
	var i int32
	if o.free != -1 {
		i = o.free
		o.free = o.nodes[i].next
	} else {
		i = o.tail
		evictedBlock, evictedSet, overflow = o.nodes[i].block, o.nodes[i].set, true
		delete(o.entries, evictedBlock)
		o.unlink(i)
	}
	o.nodes[i] = outNode{block: block, set: set}
	o.entries[block] = i
	o.pushFront(i)
	return evictedBlock, evictedSet, overflow
}

func (o *mapOutDir) remove(block uint64) {
	i, ok := o.entries[block]
	if !ok {
		return
	}
	delete(o.entries, block)
	o.unlink(i)
	o.nodes[i].next = o.free
	o.free = i
}

// recency lists a directory's entries MRU → LRU as block→set pairs.
func recency(nodes []outNode, head int32) [][2]uint64 {
	var out [][2]uint64
	for i := head; i != -1; i = nodes[i].next {
		out = append(out, [2]uint64{nodes[i].block, uint64(nodes[i].set)})
	}
	return out
}

// outTableConsistent checks the flat table against the recency list: the
// table finds every listed node at a slot holding that node, and it holds
// exactly len() occupied slots.
func outTableConsistent(o *outDir) bool {
	listed := 0
	for i := o.head; i != -1; i = o.nodes[i].next {
		s, ok := o.find(o.nodes[i].block)
		if !ok || o.slots[s] != i {
			return false
		}
		listed++
	}
	occupied := 0
	for _, i := range o.slots {
		if i >= 0 {
			occupied++
		}
	}
	return listed == o.len() && occupied == o.len()
}

// collidingBlocks returns n blocks whose home slots in a table like o's
// fall on the last two slots or the first one, so their probe runs pile
// up and wrap around the table's end.
func collidingBlocks(o *outDir, n int) []uint64 {
	last := len(o.slots) - 1
	var out []uint64
	for b := uint64(0); len(out) < n; b++ {
		if h := o.home(b); h == 0 || h >= last-1 {
			out = append(out, b)
		}
	}
	return out
}

// TestOutDirMatchesMapReference drives the flat-table OUT directory and
// the map-backed reference through the same random operation sequences —
// lookups, inserts of new and live blocks (with overflow), and removes of
// present and absent blocks — and requires identical return values,
// overflow triples, sizes and MRU → LRU order at every step.
func TestOutDirMatchesMapReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 8, 256} {
		for _, colliding := range []bool{false, true} {
			o, ref := newOutDir(capacity), newMapOutDir(capacity)
			if len(o.slots) < 2*capacity || len(o.slots)&(len(o.slots)-1) != 0 {
				t.Fatalf("capacity %d: table size %d, want a power of two >= %d", capacity, len(o.slots), 2*capacity)
			}
			universe := make([]uint64, 3*capacity+2)
			if colliding {
				universe = collidingBlocks(o, len(universe))
			} else {
				src := rng.New(uint64(capacity))
				for i := range universe {
					universe[i] = src.Uint64() >> 20
				}
			}
			src := rng.New(uint64(capacity)*2 + 1)
			for step := 0; step < 20*len(universe)+200; step++ {
				block := universe[src.Intn(len(universe))]
				switch op := src.Intn(5); op {
				case 0, 1:
					set := src.Intn(1024)
					eb, es, ovf := o.insert(block, set)
					rb, rs, rovf := ref.insert(block, set)
					if eb != rb || es != rs || ovf != rovf {
						t.Fatalf("cap %d colliding %v step %d: insert(%d) = (%d,%d,%v), reference (%d,%d,%v)",
							capacity, colliding, step, block, eb, es, ovf, rb, rs, rovf)
					}
				case 2, 3:
					s, ok := o.lookup(block)
					rs, rok := ref.lookup(block)
					if s != rs || ok != rok {
						t.Fatalf("cap %d colliding %v step %d: lookup(%d) = (%d,%v), reference (%d,%v)",
							capacity, colliding, step, block, s, ok, rs, rok)
					}
				default:
					o.remove(block)
					ref.remove(block)
				}
				if o.len() != len(ref.entries) {
					t.Fatalf("cap %d colliding %v step %d: len %d, reference %d", capacity, colliding, step, o.len(), len(ref.entries))
				}
				if got, want := recency(o.nodes, o.head), recency(ref.nodes, ref.head); !slices.Equal(got, want) {
					t.Fatalf("cap %d colliding %v step %d: order %v, reference %v", capacity, colliding, step, got, want)
				}
				if !outTableConsistent(o) {
					t.Fatalf("cap %d colliding %v step %d: table disagrees with the recency list", capacity, colliding, step)
				}
			}
			o.reset()
			if o.len() != 0 || o.head != -1 || !outTableConsistent(o) {
				t.Fatalf("cap %d: reset left entries behind", capacity)
			}
		}
	}
}
