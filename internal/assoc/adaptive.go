package assoc

import (
	"fmt"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/indexing"
	"cacheuniformity/internal/trace"
)

// AdaptiveConfig sizes the adaptive group-associative cache's bookkeeping
// structures (paper §III-B).  The paper's empirical sizing is SHT = 3/8 and
// OUT = 4/16 of the number of direct-mapped cache sets.
type AdaptiveConfig struct {
	// SHTEntries is the capacity of the set-reference history table; 0
	// applies the paper's 3/8·sets default.
	SHTEntries int
	// OUTEntries is the capacity of the out-of-position directory; 0
	// applies the paper's 4/16·sets default.
	OUTEntries int
}

// adaptiveLine is a cache line with the adaptive cache's disposable bit.
type adaptiveLine struct {
	valid bool
	block uint64
	dirty bool
	// disposable marks a block that may simply be replaced on a miss; the
	// OUT machinery is bypassed (paper: the d bit).
	disposable bool
	// home is the conventional set of the resident block (for bookkeeping
	// when the block sits out of position).
	home int
}

// AdaptiveCache implements Peir, Lee and Hsu's adaptive group-associative
// cache.  A direct-mapped cache is augmented with
//
//   - SHT, a recency list of set indexes: a set on the SHT is "MRU" and its
//     resident block is considered worth keeping;
//   - OUT, a directory mapping out-of-position blocks to the set that
//     currently shelters them (probed in parallel with the cache; a hit
//     through OUT costs AdaptiveOUTHitCycles);
//   - a disposable bit per line, set when the line's block stops being
//     protected (its set aged out of the SHT, or its OUT entry was
//     recycled).
//
// On a miss whose victim is protected (non-disposable), the victim is
// relocated to a disposable line elsewhere and registered in OUT instead of
// being evicted — selective victim caching inside the cache's own cold
// sets.
type AdaptiveCache struct {
	cache.Tally
	name   string
	layout addr.Layout
	// indexer maps an access to its primary set.  It sees the whole access
	// (not just the address) so the SMT partitioned scheme of the paper's
	// Figure 14 can route threads to their partitions while sharing the
	// SHT/OUT machinery.
	indexer func(trace.Access) int
	lines   []adaptiveLine

	sht *lruList // of set indexes
	out *outDir  // block → sheltering set

	scan int // rotating pointer for the disposable-line search
}

// NewAdaptiveCache builds an adaptive cache over the layout with the given
// table sizes.  idx selects the primary location (nil = conventional).
func NewAdaptiveCache(l addr.Layout, idx indexing.Func, cfg AdaptiveConfig) (*AdaptiveCache, error) {
	idx, err := primaryIndex(l, idx)
	if err != nil {
		return nil, err
	}
	return NewAdaptiveCacheIndexer(l, "adaptive/"+idx.Name(),
		func(a trace.Access) int { return idx.Index(a.Addr) }, cfg)
}

// NewAdaptiveCacheIndexer builds an adaptive cache whose primary placement
// is an arbitrary access-to-set function; used by the SMT adaptive
// partitioned scheme (Figure 14).  cfg sizes left at 0 take the paper's
// defaults.
func NewAdaptiveCacheIndexer(l addr.Layout, name string, indexer func(trace.Access) int, cfg AdaptiveConfig) (*AdaptiveCache, error) {
	sets := l.Sets()
	if cfg.SHTEntries == 0 {
		cfg.SHTEntries = sets * 3 / 8
	}
	if cfg.OUTEntries == 0 {
		cfg.OUTEntries = sets * 4 / 16
	}
	if cfg.SHTEntries <= 0 || cfg.SHTEntries > sets {
		return nil, fmt.Errorf("assoc: SHT size %d out of range (1..%d)", cfg.SHTEntries, sets)
	}
	if cfg.OUTEntries <= 0 || cfg.OUTEntries > sets {
		return nil, fmt.Errorf("assoc: OUT size %d out of range (1..%d)", cfg.OUTEntries, sets)
	}
	if indexer == nil {
		return nil, fmt.Errorf("assoc: nil indexer")
	}
	a := &AdaptiveCache{
		name:    name,
		layout:  l,
		indexer: indexer,
	}
	a.sht = newLRUList(cfg.SHTEntries)
	a.out = newOutDir(cfg.OUTEntries)
	a.Reset()
	return a, nil
}

// Name implements cache.Model.
func (a *AdaptiveCache) Name() string { return a.name }

// Sets implements cache.Model.
func (a *AdaptiveCache) Sets() int { return a.layout.Sets() }

// Reset implements cache.Model.
func (a *AdaptiveCache) Reset() {
	a.lines = make([]adaptiveLine, a.layout.Sets())
	a.sht.reset()
	a.out.reset()
	a.scan = 0
	a.Tally = cache.NewTally(a.layout.Sets())
}

// touchSHT promotes set to MRU; a set falling off the SHT tail loses its
// protection (the line's disposable bit is set).
func (a *AdaptiveCache) touchSHT(set int) {
	if aged, ok := a.sht.touch(set); ok {
		// aged is no longer MRU: whatever its line holds becomes fair game.
		if a.lines[aged].valid {
			a.lines[aged].disposable = true
		}
	}
}

// Access implements cache.Model.
//
//lint:hotpath per-access scheme hot path
func (a *AdaptiveCache) Access(acc trace.Access) cache.AccessResult {
	primary := a.indexer(acc)
	block := a.layout.Block(acc.Addr)
	store := acc.Kind == trace.Write

	res := cache.AccessResult{}
	statSet := primary

	if ln := &a.lines[primary]; ln.valid && ln.block == block {
		// Direct hit.  The set regains MRU status and protection.
		res = cache.AccessResult{Hit: true, HitCycles: 1}
		if store {
			ln.dirty = true
		}
		ln.disposable = false
		a.touchSHT(primary)
	} else if shelter, ok := a.out.lookup(block); ok && a.lines[shelter].valid && a.lines[shelter].block == block {
		// OUT-directory hit: the block is out of position at `shelter`.
		// Swap it with the primary occupant to speed future accesses, and
		// update OUT to track the block that now sits out of position.
		res = cache.AccessResult{Hit: true, SecondaryProbe: true, SecondaryHit: true, HitCycles: AdaptiveOUTHitCycles}
		statSet = shelter
		a.out.remove(block)
		moved := a.lines[primary] // may be invalid
		a.lines[primary] = a.lines[shelter]
		a.lines[primary].home = primary
		a.lines[primary].disposable = false
		if store {
			a.lines[primary].dirty = true
		}
		if moved.valid {
			moved.disposable = false // sheltered blocks stay protected until OUT recycles them
			a.lines[shelter] = moved
			if evicted, old, ins := a.out.insert(moved.block, shelter); ins {
				a.retireShelter(evicted, old)
			}
		} else {
			a.lines[shelter] = adaptiveLine{}
		}
		a.touchSHT(primary)
	} else {
		// Miss.  The new block always fills its primary set; the question
		// is what happens to the current occupant.
		res.SecondaryProbe = ok // we did consult OUT (parallel probe); charge only on stale entry
		victim := a.lines[primary]
		switch {
		case !victim.valid:
			// Empty line, nothing to do.
		case victim.disposable:
			// Paper: "On a miss, the data residing in a block is simply
			// replaced if the disposable bit is set."
			res.Evicted = true
			res.EvictedBlock = victim.block
			res.Writeback = victim.dirty
			a.out.remove(victim.block)
		default:
			// Protected victim: shelter it in a disposable line.
			shelter := a.findDisposable(primary)
			if shelter < 0 {
				// No shelter available; genuine eviction.
				res.Evicted = true
				res.EvictedBlock = victim.block
				res.Writeback = victim.dirty
				a.out.remove(victim.block)
			} else {
				old := a.lines[shelter]
				if old.valid {
					res.Evicted = true
					res.EvictedBlock = old.block
					res.Writeback = old.dirty
					a.out.remove(old.block)
				}
				victim.disposable = false
				a.lines[shelter] = victim
				if evicted, oldSet, ovf := a.out.insert(victim.block, shelter); ovf {
					a.retireShelter(evicted, oldSet)
				}
			}
		}
		a.lines[primary] = adaptiveLine{valid: true, block: block, dirty: store, home: primary}
		a.touchSHT(primary)
	}

	a.Record(statSet, res)
	return res
}

// retireShelter handles an OUT-directory overflow: the recycled entry's
// sheltered block becomes unreachable (no directory entry, wrong set), so
// the line is invalidated — a dirty copy is written back.  Leaving the
// stale copy resident would allow duplicate residency once the block is
// re-fetched into its primary set, and a stale dirty copy could later
// overwrite newer data; the eviction is charged to the aggregate counters
// (it is a side effect of the current access, not its primary outcome).
func (a *AdaptiveCache) retireShelter(block uint64, set int) {
	ln := &a.lines[set]
	if !ln.valid || ln.block != block {
		return
	}
	a.RecordEviction(ln.dirty)
	*ln = adaptiveLine{}
}

// findDisposable scans for a line whose disposable bit is set, starting at
// the rotating pointer ("a nearby disposable line").  Returns -1 if none
// exists.  The primary set itself is excluded.
func (a *AdaptiveCache) findDisposable(exclude int) int {
	n := len(a.lines)
	for i := 0; i < n; i++ {
		s := (a.scan + i) % n
		if s == exclude {
			continue
		}
		if !a.lines[s].valid || a.lines[s].disposable {
			a.scan = (s + 1) % n
			return s
		}
	}
	return -1
}

// lruList is a fixed-capacity LRU list of small non-negative integers (set
// indexes).  It is intrusive: per-value recency links are held in arrays
// indexed by the value itself (the value universe — set numbers — is small
// and dense), so touch is O(1) with no map traffic.  This list is updated
// on every single access of the adaptive cache, which made the previous
// slice-shift implementation its dominant cost.
type lruList struct {
	capacity   int
	next, prev []int32 // recency links per value; meaningful only if inList
	inList     []bool
	head, tail int32 // MRU / LRU value; -1 when empty
	size       int
}

func newLRUList(capacity int) *lruList {
	return &lruList{capacity: capacity, head: -1, tail: -1}
}

func (l *lruList) reset() {
	for i := range l.inList {
		l.inList[i] = false
	}
	l.head, l.tail = -1, -1
	l.size = 0
}

// ensure grows the per-value link arrays to cover v.
func (l *lruList) ensure(v int) {
	if v < len(l.inList) {
		return
	}
	n := v + 1
	if n < 2*len(l.inList) {
		n = 2 * len(l.inList)
	}
	next := make([]int32, n)
	prev := make([]int32, n)
	in := make([]bool, n)
	copy(next, l.next)
	copy(prev, l.prev)
	copy(in, l.inList)
	l.next, l.prev, l.inList = next, prev, in
}

// unlink removes v (which must be in the list) from the chain.
func (l *lruList) unlink(v int32) {
	p, n := l.prev[v], l.next[v]
	if p == -1 {
		l.head = n
	} else {
		l.next[p] = n
	}
	if n == -1 {
		l.tail = p
	} else {
		l.prev[n] = p
	}
}

// pushFront makes v the MRU value.
func (l *lruList) pushFront(v int32) {
	l.prev[v] = -1
	l.next[v] = l.head
	if l.head != -1 {
		l.prev[l.head] = v
	}
	l.head = v
	if l.tail == -1 {
		l.tail = v
	}
}

// touch promotes v to MRU, returning (aged, true) if an older value fell
// off the list to make room.
func (l *lruList) touch(v int) (aged int, evicted bool) {
	l.ensure(v)
	w := int32(v)
	if l.inList[w] {
		if l.head != w {
			l.unlink(w)
			l.pushFront(w)
		}
		return 0, false
	}
	if l.size >= l.capacity {
		old := l.tail
		l.unlink(old)
		l.inList[old] = false
		l.size--
		aged, evicted = int(old), true
	}
	l.inList[w] = true
	l.size++
	l.pushFront(w)
	return aged, evicted
}

// contains reports membership.
func (l *lruList) contains(v int) bool {
	return v < len(l.inList) && l.inList[v]
}

// outDir is the out-of-position directory: an LRU map from block address
// to the set sheltering it.  Entries live in a fixed pool of capacity
// nodes chained into an intrusive recency list plus a free list, so
// lookup/promote/insert/remove are O(1) — the directory is consulted on
// every miss and the previous slice-shift ordering dominated the adaptive
// cache's runtime.
type outDir struct {
	capacity int
	entries  map[uint64]int32 // block → node index
	nodes    []outNode
	head     int32 // MRU node; -1 when empty
	tail     int32 // LRU node; -1 when empty
	free     int32 // free-list head chained via next; -1 when full
}

type outNode struct {
	block      uint64
	set        int
	prev, next int32
}

func newOutDir(capacity int) *outDir {
	o := &outDir{
		capacity: capacity,
		entries:  make(map[uint64]int32, capacity),
		nodes:    make([]outNode, capacity),
	}
	o.resetLinks()
	return o
}

func (o *outDir) resetLinks() {
	for i := range o.nodes {
		o.nodes[i].next = int32(i + 1)
	}
	o.nodes[len(o.nodes)-1].next = -1
	o.free = 0
	o.head, o.tail = -1, -1
}

func (o *outDir) reset() {
	clear(o.entries)
	o.resetLinks()
}

func (o *outDir) unlink(i int32) {
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

func (o *outDir) pushFront(i int32) {
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

// lookup returns the sheltering set for the block, promoting it to MRU.
func (o *outDir) lookup(block uint64) (int, bool) {
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

// insert adds block → set.  If the directory was full, the LRU entry is
// recycled and returned as (evictedBlock, itsSet, true).
func (o *outDir) insert(block uint64, set int) (evictedBlock uint64, evictedSet int, overflow bool) {
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

// remove deletes the entry for block if present.
func (o *outDir) remove(block uint64) {
	i, ok := o.entries[block]
	if !ok {
		return
	}
	delete(o.entries, block)
	o.unlink(i)
	o.nodes[i].next = o.free
	o.free = i
}

// len returns the number of live entries.
func (o *outDir) len() int { return len(o.entries) }
