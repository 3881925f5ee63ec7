package dynamic

import (
	"cmp"
	"fmt"
	"slices"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/trace"
)

// Temperature is the per-epoch heat class of one set.
type Temperature uint8

// Classes in increasing heat order; the steering rule moves victims from
// VeryHot sets into VeryCold ones.
const (
	VeryCold Temperature = iota
	Cold
	Hot
	VeryHot
)

// String names the class for reports.
func (t Temperature) String() string {
	switch t {
	case VeryCold:
		return "very-cold"
	case Cold:
		return "cold"
	case Hot:
		return "hot"
	case VeryHot:
		return "very-hot"
	}
	return fmt.Sprintf("temperature(%d)", uint8(t))
}

// TemperatureConfig sizes a TemperatureCache; zero fields take the listed
// defaults.
type TemperatureConfig struct {
	// Epoch is the number of accesses between set re-classifications
	// (default 8192).
	Epoch uint64
	// ShelterEntries bounds the block→set directory that finds steered
	// blocks on later accesses (default sets/4, one entry per Very-Cold
	// set).  The oldest registration is forgotten when full; its block
	// stays resident in its shelter set but costs a miss to rediscover.
	ShelterEntries int
}

// shelterEntry records where a steered block lives and which directory
// slot owns its registration (so a recycled slot only invalidates its own
// entry).
type shelterEntry struct {
	set  int
	slot int
}

// TemperatureCache is a direct-mapped cache with ChampSim-style set
// temperature steering.  Every Epoch accesses the sets are ranked by how
// often the closing epoch touched them and split into quartiles: Very-Hot,
// Hot, Cold, Very-Cold.  A block displaced from a Very-Hot set is not
// evicted — it is re-homed into a Very-Cold set chosen round-robin, and a
// bounded shelter directory remembers the move so later accesses find it
// with one extra probe (HitCycles 2, counted as a secondary hit).  Misses
// do not pay a shelter-probe penalty: the directory is consulted in
// parallel with the primary set, like the column-associative rehash.
type TemperatureCache struct {
	cache.Tally
	name   string
	layout addr.Layout
	epoch  uint64

	lines []cache.Line
	class []Temperature

	epochAccesses []uint64
	sinceClassify uint64
	classified    bool // at least one classification has happened

	shelter    map[uint64]shelterEntry
	shelterCap int
	ring       []uint64 // directory slots in FIFO recycle order
	ringPos    int

	veryCold   []int // ascending Very-Cold set ids from the last classification
	coldCursor int

	steered         uint64
	classifications uint64

	order []int // classification scratch
}

// NewTemperatureCache validates the configuration against the layout and
// returns a ready cache.
func NewTemperatureCache(l addr.Layout, cfg TemperatureConfig) (*TemperatureCache, error) {
	sets := l.Sets()
	if sets < 4 {
		return nil, fmt.Errorf("dynamic: temperature classification needs at least 4 sets, layout has %d", sets)
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = 8192
	}
	if cfg.ShelterEntries == 0 {
		cfg.ShelterEntries = sets / 4
	}
	if cfg.ShelterEntries < 1 || cfg.ShelterEntries > sets {
		return nil, fmt.Errorf("dynamic: shelter capacity %d out of range (1..%d)", cfg.ShelterEntries, sets)
	}
	t := &TemperatureCache{
		name:       fmt.Sprintf("temperature/%d/%d", cfg.Epoch, cfg.ShelterEntries),
		layout:     l,
		epoch:      cfg.Epoch,
		shelterCap: cfg.ShelterEntries,
	}
	t.Reset()
	return t, nil
}

// Name implements cache.Model.
func (t *TemperatureCache) Name() string { return t.name }

// Sets implements cache.Model.
func (t *TemperatureCache) Sets() int { return t.layout.Sets() }

// Reset implements cache.Model: contents, counters, heat state and the
// shelter directory all return to their initial state.
func (t *TemperatureCache) Reset() {
	sets := t.layout.Sets()
	t.lines = make([]cache.Line, sets)
	t.class = make([]Temperature, sets) // all VeryCold until first classification
	t.epochAccesses = make([]uint64, sets)
	t.sinceClassify = 0
	t.classified = false
	t.shelter = make(map[uint64]shelterEntry, t.shelterCap)
	t.ring = make([]uint64, t.shelterCap)
	t.ringPos = 0
	t.veryCold = nil
	t.coldCursor = 0
	t.steered = 0
	t.classifications = 0
	t.order = make([]int, sets)
	t.Tally = cache.NewTally(sets)
}

// Steered returns how many victims were re-homed instead of evicted.
func (t *TemperatureCache) Steered() uint64 { return t.steered }

// Classifications returns how many epochs have closed.
func (t *TemperatureCache) Classifications() uint64 { return t.classifications }

// ClassOf returns the current temperature of a set.
func (t *TemperatureCache) ClassOf(set int) Temperature { return t.class[set] }

// Access implements cache.Model.
func (t *TemperatureCache) Access(a trace.Access) cache.AccessResult {
	set := int(t.layout.Index(a.Addr))
	block := t.layout.Block(a.Addr)
	store := a.Kind == trace.Write

	res := cache.AccessResult{}
	hitSet := set
	ln := &t.lines[set]
	switch {
	case ln.Valid && ln.Block == block:
		res = cache.AccessResult{Hit: true, HitCycles: 1}
		if store {
			ln.Dirty = true
		}
	case t.shelterHit(block, store, &res, &hitSet):
		// bookkeeping done inside shelterHit
	default:
		// Miss: fill the primary set, steering its victim when hot.
		if ln.Valid {
			if t.classified && t.class[set] == VeryHot && len(t.veryCold) > 0 {
				t.steer(*ln, &res)
			} else {
				res.Evicted = true
				res.EvictedBlock = ln.Block
				res.Writeback = ln.Dirty
			}
		}
		*ln = cache.Line{Valid: true, Block: block, Dirty: store}
	}

	// The access stays charged to its primary set; a shelter hit is
	// charged to the sheltering set.
	t.RecordSplit(set, hitSet, res)
	t.epochAccesses[set]++
	t.sinceClassify++
	if t.sinceClassify >= t.epoch {
		t.classify()
	}
	return res
}

// shelterHit probes the shelter directory for block; on a live entry it
// sets res to a secondary hit and hitSet to the sheltering set, and
// returns true.  Stale registrations — the sheltered line has since been
// replaced — are deleted lazily here.
func (t *TemperatureCache) shelterHit(block uint64, store bool, res *cache.AccessResult, hitSet *int) bool {
	e, ok := t.shelter[block]
	if !ok {
		return false
	}
	ln := &t.lines[e.set]
	if !ln.Valid || ln.Block != block {
		delete(t.shelter, block)
		return false
	}
	*res = cache.AccessResult{Hit: true, SecondaryProbe: true, SecondaryHit: true, HitCycles: 2}
	if store {
		ln.Dirty = true
	}
	*hitSet = e.set
	return true
}

// steer re-homes a victim displaced from a Very-Hot set into the next
// Very-Cold set in round-robin order, evicting that set's resident (if
// any) and registering the move in the shelter directory.
func (t *TemperatureCache) steer(victim cache.Line, res *cache.AccessResult) {
	s2 := t.veryCold[t.coldCursor%len(t.veryCold)]
	t.coldCursor++
	dst := &t.lines[s2]
	if dst.Valid {
		res.Evicted = true
		res.EvictedBlock = dst.Block
		res.Writeback = dst.Dirty
	}
	*dst = victim
	t.register(victim.Block, s2)
	t.steered++
}

// register inserts a block→set mapping, recycling the oldest directory
// slot when full.
func (t *TemperatureCache) register(block uint64, set int) {
	old := t.ring[t.ringPos]
	if e, ok := t.shelter[old]; ok && e.slot == t.ringPos {
		delete(t.shelter, old)
	}
	t.ring[t.ringPos] = block
	t.shelter[block] = shelterEntry{set: set, slot: t.ringPos}
	t.ringPos = (t.ringPos + 1) % t.shelterCap
}

// classify closes an epoch: rank sets by epoch access count (ties broken
// by set number so the ordering is total and deterministic) and assign
// quartiles hottest-first.  The Very-Cold steering targets are kept in
// ascending set order and the round-robin cursor continues across epochs.
func (t *TemperatureCache) classify() {
	sets := len(t.order)
	for i := range t.order {
		t.order[i] = i
	}
	slices.SortFunc(t.order, func(a, b int) int {
		if c := cmp.Compare(t.epochAccesses[b], t.epochAccesses[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	q := sets / 4
	for rank, set := range t.order {
		switch {
		case rank < q:
			t.class[set] = VeryHot
		case rank < 2*q:
			t.class[set] = Hot
		case rank < sets-q:
			t.class[set] = Cold
		default:
			t.class[set] = VeryCold
		}
	}
	t.veryCold = t.veryCold[:0]
	for set := 0; set < sets; set++ {
		if t.class[set] == VeryCold {
			t.veryCold = append(t.veryCold, set)
		}
	}
	for i := range t.epochAccesses {
		t.epochAccesses[i] = 0
	}
	t.sinceClassify = 0
	t.classified = true
	t.classifications++
}

// AccessBatch implements cache.BatchAccessor.
//
//lint:hotpath replay inner loop of the temperature-steered scheme
func (t *TemperatureCache) AccessBatch(batch []trace.Access) {
	for _, a := range batch {
		t.Access(a)
	}
}
