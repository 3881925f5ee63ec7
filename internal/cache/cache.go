package cache

import (
	"fmt"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/indexing"
	"cacheuniformity/internal/trace"
)

// Line is one cache line's bookkeeping state (the simulator carries no
// data payloads).
type Line struct {
	Valid bool
	// Block is the block address held (full block number, not a truncated
	// tag — see the package comment).
	Block uint64
	Dirty bool
}

// Config describes a set-associative cache.
type Config struct {
	// Name labels the cache in reports; defaults to a geometry string.
	Name string
	// Layout fixes block size and the conventional index width.
	Layout addr.Layout
	// Ways is the associativity (1 = direct mapped).
	Ways int
	// Index maps addresses to sets; nil means conventional modulo.
	Index indexing.Func
	// Replacement selects victims within a set; nil means LRU.
	Replacement Policy
	// WriteAllocate controls whether stores that miss fill the cache
	// (true, the default used in all experiments) or bypass it.
	WriteAllocate bool
	// WriteThrough propagates every store to the next level immediately
	// (AccessResult.WroteThrough) instead of marking lines dirty; the
	// cache then never produces writebacks.  The paper's configuration is
	// write-back (false).
	WriteThrough bool
}

// Cache is a set-associative cache with a pluggable index function and
// replacement policy.  It implements Model.
type Cache struct {
	name         string
	layout       addr.Layout
	ways         int
	index        indexing.Func
	policy       Policy
	noAlloc      bool
	writeThrough bool

	// store holds the lines, flat ([set*ways + way]), and the counters;
	// at one way its direct-mapped methods replay into it.
	store DirectMapped
	// replSets is the per-set replacement state of the generic loop; nil
	// for a direct-mapped kernel cache, whose single way leaves a policy
	// nothing to decide.
	replSets []SetPolicy
	// setBuf holds the set numbers of the batch the direct-mapped kernel
	// is replaying; nil for every other cache.
	setBuf []int32
}

// New builds a cache from the config.  The number of sets comes from the
// index function's range (so prime-modulo caches expose only p sets of
// counters, matching the fragmentation the paper describes), while storage
// is allocated for the layout's full set count.
func New(cfg Config) (*Cache, error) {
	if cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache: associativity %d must be positive", cfg.Ways)
	}
	idx := cfg.Index
	if idx == nil {
		idx = indexing.NewModulo(cfg.Layout)
	}
	if idx.Sets() > cfg.Layout.Sets() {
		return nil, fmt.Errorf("cache: index function reaches %d sets, layout has %d",
			idx.Sets(), cfg.Layout.Sets())
	}
	pol := cfg.Replacement
	if pol == nil {
		pol = LRU{}
	}
	if v, ok := pol.(WaysValidator); ok {
		if err := v.ValidateWays(cfg.Ways); err != nil {
			return nil, err
		}
	}
	name := cfg.Name
	if name == "" {
		name = fmt.Sprintf("%dx%dB/%dway/%s", cfg.Layout.Sets(), cfg.Layout.BlockBytes(), cfg.Ways, idx.Name())
	}
	c := &Cache{
		name:         name,
		layout:       cfg.Layout,
		ways:         cfg.Ways,
		index:        idx,
		policy:       pol,
		noAlloc:      !cfg.WriteAllocate,
		writeThrough: cfg.WriteThrough,
	}
	c.alloc()
	return c, nil
}

func (c *Cache) alloc() {
	sets := c.layout.Sets()
	c.store = DirectMapped{lines: make([]Line, sets*c.ways), Tally: NewTally(sets)}
	if c.directMapped() {
		c.setBuf = make([]int32, trace.DefaultBatch)
		return
	}
	c.replSets = make([]SetPolicy, sets)
	for s := range c.replSets {
		c.replSets[s] = c.policy.NewSet(c.ways)
	}
}

// directMapped reports whether the cache replays through the
// direct-mapped kernel: one way, write-back, write-allocate.
func (c *Cache) directMapped() bool {
	return c.ways == 1 && !c.writeThrough && !c.noAlloc
}

// Name implements Model.
func (c *Cache) Name() string { return c.name }

// Sets implements Model; it reports the layout's physical set count (the
// index function may reach fewer — those sets simply stay cold).
func (c *Cache) Sets() int { return c.layout.Sets() }

// Layout returns the cache's address layout.
func (c *Cache) Layout() addr.Layout { return c.layout }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Index returns the index function in use.
func (c *Cache) Index() indexing.Func { return c.index }

// Reset implements Model.
func (c *Cache) Reset() {
	c.store.Reset()
	for s := range c.replSets {
		c.replSets[s] = c.policy.NewSet(c.ways)
	}
}

// Counters implements Model.
func (c *Cache) Counters() Counters { return c.store.Counters() }

// PerSet implements Model.
func (c *Cache) PerSet() PerSet { return c.store.PerSet() }

// Access implements Model.
func (c *Cache) Access(a trace.Access) AccessResult {
	set := c.index.Index(a.Addr)
	if c.directMapped() {
		return c.store.Access(set, a, c.layout.OffsetBits)
	}
	res := c.accessSet(set, c.layout.Block(a.Addr), a.Kind == trace.Write)
	c.store.Record(set, res)
	return res
}

// AccessBatch implements BatchAccessor: the same bookkeeping as Access,
// but over a whole batch through concrete (devirtualised) calls.  A
// direct-mapped cache replays through the kernel, a set-number batch at
// a time.
//
//lint:hotpath per-access work in the replay inner loop
func (c *Cache) AccessBatch(batch []trace.Access) {
	if c.directMapped() {
		c.store.replayBatch(c.index, c.layout.OffsetBits, batch, c.setBuf, nil)
		return
	}
	for _, a := range batch {
		set := c.index.Index(a.Addr)
		res := c.accessSet(set, c.layout.Block(a.Addr), a.Kind == trace.Write)
		c.store.Record(set, res)
	}
}

// accessSet performs the lookup/fill within one set.
func (c *Cache) accessSet(set int, block uint64, store bool) AccessResult {
	lines := c.store.lines[set*c.ways : (set+1)*c.ways]
	repl := c.replSets[set]
	for w := range lines {
		if lines[w].Valid && lines[w].Block == block {
			repl.Touch(w)
			res := AccessResult{Hit: true, HitCycles: 1}
			if store {
				if c.writeThrough {
					res.WroteThrough = true
				} else {
					lines[w].Dirty = true
				}
			}
			return res
		}
	}
	// Miss.
	res := AccessResult{}
	if store {
		res.WroteThrough = c.writeThrough
	}
	if store && c.noAlloc {
		return res // write-no-allocate: the store passes down the hierarchy
	}
	way := -1
	for w := range lines {
		if !lines[w].Valid {
			way = w
			break
		}
	}
	if way < 0 {
		way = repl.Victim()
		res.Evicted = true
		res.EvictedBlock = lines[way].Block
		res.Writeback = lines[way].Dirty
	}
	lines[way] = Line{Valid: true, Block: block, Dirty: store && !c.writeThrough}
	repl.Fill(way)
	return res
}

// Lookup reports whether the block containing a is resident, without
// touching replacement state or counters (a probe, not an access).
func (c *Cache) Lookup(a addr.Addr) bool {
	set := c.index.Index(a)
	block := c.layout.Block(a)
	for _, ln := range c.store.lines[set*c.ways : (set+1)*c.ways] {
		if ln.Valid && ln.Block == block {
			return true
		}
	}
	return false
}

// Utilization returns the fraction of lines currently valid.
func (c *Cache) Utilization() float64 {
	if len(c.store.lines) == 0 {
		return 0
	}
	valid := 0
	for _, ln := range c.store.lines {
		if ln.Valid {
			valid++
		}
	}
	return float64(valid) / float64(len(c.store.lines))
}
