package assoc

import (
	"fmt"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/indexing"
	"cacheuniformity/internal/trace"
)

// PartnerConfig tunes the partner-index cache of the paper's Figure 3.
type PartnerConfig struct {
	// Epoch is the number of accesses between partner re-evaluations.
	// 0 applies the default of 4096.
	Epoch int
	// HotFactor: a set is hot when its epoch misses ≥ HotFactor × the mean
	// epoch misses.  0 applies the default of 2 (Zhang's FMS threshold).
	HotFactor float64
	// ColdFactor: a set is a partner candidate when its epoch accesses ≤
	// ColdFactor × the mean.  0 applies the default of 0.5 (LAS threshold).
	ColdFactor float64
	// MaxChain caps the partner-list length per hot set.  The paper
	// (§1.2): "In principle we can extend the partner index idea to
	// create a linked list of cache lines, effectively increasing the
	// set-associativity for selected hot sets.  Of course, the longer the
	// list, the more cycles are expended."  1 gives the basic hot/cold
	// pairing; k gives effective associativity k+1 on hot sets at up to
	// k+1 probe cycles.  0 applies the default of 1.
	MaxChain int
}

// partnerLine extends a line with the L/partner-index fields of Figure 3.
type partnerLine struct {
	cache.Line
	// linked / partner are the paper's L bit and Partner Index fields;
	// chains form when a partner line is itself linked onward.
	linked  bool
	partner int
	// member marks a line serving inside some chain (so rebalancing never
	// picks it as a hot head or as a fresh partner).
	member bool
}

// PartnerCache implements the programmable-associativity sketch of the
// paper's §1.2/Figure 3: each line may be linked to a partner line —
// generalised to a linked *chain* of up to MaxChain partners — giving hot
// sets an effective associativity of chain-length+1 while cold sets stay
// direct mapped.  Partners are matched dynamically from per-epoch access
// and miss counts: at every epoch boundary, frequently-missed sets are
// linked to least-accessed sets, and chains grow while their head keeps
// missing.  The chain behaves as an LRU list rooted at the primary line
// (hits promote to the head); a hit at chain depth d costs d+1 cycles.
type PartnerCache struct {
	cache.Tally
	name   string
	layout addr.Layout
	index  indexing.Func
	cfg    PartnerConfig
	lines  []partnerLine

	epochAccesses    []uint64
	epochMisses      []uint64
	epochPartnerHits []uint64 // indexed by the hot (primary) set
	sinceEpoch       int

	// chainBuf is chain()'s reusable scratch: chain is called on every
	// access and its result is always consumed before the next call, so one
	// buffer serves them all without per-access allocation.  growBuf and
	// coldBuf are rebalance's, for the same reason.
	chainBuf, growBuf, coldBuf []int
}

// NewPartnerCache builds the partner cache; idx selects the primary
// location (nil = conventional modulo).
func NewPartnerCache(l addr.Layout, idx indexing.Func, cfg PartnerConfig) (*PartnerCache, error) {
	if cfg.Epoch == 0 {
		cfg.Epoch = 4096
	}
	if cfg.Epoch < 0 {
		return nil, fmt.Errorf("assoc: epoch %d must be positive", cfg.Epoch)
	}
	if cfg.HotFactor == 0 {
		cfg.HotFactor = 2
	}
	if cfg.ColdFactor == 0 {
		cfg.ColdFactor = 0.5
	}
	if cfg.MaxChain == 0 {
		cfg.MaxChain = 1
	}
	if cfg.MaxChain < 0 || cfg.MaxChain >= l.Sets() {
		return nil, fmt.Errorf("assoc: chain length %d out of range", cfg.MaxChain)
	}
	idx, err := primaryIndex(l, idx)
	if err != nil {
		return nil, err
	}
	p := &PartnerCache{name: "partner/" + idx.Name(), layout: l, index: idx, cfg: cfg}
	p.Reset()
	return p, nil
}

// Name implements cache.Model.
func (p *PartnerCache) Name() string { return p.name }

// Sets implements cache.Model.
func (p *PartnerCache) Sets() int { return p.layout.Sets() }

// Reset implements cache.Model.
func (p *PartnerCache) Reset() {
	n := p.layout.Sets()
	p.lines = make([]partnerLine, n)
	p.epochAccesses = make([]uint64, n)
	p.epochMisses = make([]uint64, n)
	p.epochPartnerHits = make([]uint64, n)
	p.sinceEpoch = 0
	p.Tally = cache.NewTally(n)
}

// chain returns the line indices of the chain rooted at head:
// [head, partner, partner's partner, ...], bounded by MaxChain+1.  The
// returned slice aliases a scratch buffer that the next chain call reuses;
// callers must finish with it before walking another chain.
func (p *PartnerCache) chain(head int) []int {
	out := p.chainBuf[:0]
	cur := head
	for {
		out = append(out, cur)
		if !p.lines[cur].linked || len(out) > p.cfg.MaxChain {
			p.chainBuf = out
			return out
		}
		cur = p.lines[cur].partner
	}
}

// Access implements cache.Model.
//
//lint:hotpath per-access scheme hot path
func (p *PartnerCache) Access(a trace.Access) cache.AccessResult {
	primary := p.index.Index(a.Addr)
	block := p.layout.Block(a.Addr)
	store := a.Kind == trace.Write

	res := cache.AccessResult{}
	statSet := primary

	ch := p.chain(primary)
	hitDepth := -1
	for d, s := range ch {
		if p.lines[s].Valid && p.lines[s].Block == block {
			hitDepth = d
			break
		}
	}
	switch {
	case hitDepth == 0:
		res = cache.AccessResult{Hit: true, HitCycles: 1}
		if store {
			p.lines[primary].Dirty = true
		}
	case hitDepth > 0:
		// Chain hit at depth d: d extra probe cycles; promote to the head
		// (LRU move-to-front), shifting the shallower blocks down one.
		res = cache.AccessResult{Hit: true, SecondaryProbe: true, SecondaryHit: true, HitCycles: hitDepth + 1}
		statSet = ch[hitDepth]
		p.epochPartnerHits[primary]++
		hitLine := p.lines[ch[hitDepth]].Line
		if store {
			hitLine.Dirty = true
		}
		for d := hitDepth; d > 0; d-- {
			p.lines[ch[d]].Line = p.lines[ch[d-1]].Line
		}
		p.lines[primary].Line = hitLine
	case len(ch) > 1:
		// Miss on a chained set: shift every block one link down; the tail
		// occupant is evicted; the new block fills the head.
		res.SecondaryProbe = true
		tail := ch[len(ch)-1]
		if victim := p.lines[tail].Line; victim.Valid {
			res.Evicted = true
			res.EvictedBlock = victim.Block
			res.Writeback = victim.Dirty
		}
		for d := len(ch) - 1; d > 0; d-- {
			p.lines[ch[d]].Line = p.lines[ch[d-1]].Line
		}
		p.lines[primary].Line = cache.Line{Valid: true, Block: block, Dirty: store}
	default:
		// Plain direct-mapped miss.
		if ln := &p.lines[primary]; ln.Valid {
			res.Evicted = true
			res.EvictedBlock = ln.Block
			res.Writeback = ln.Dirty
		}
		p.lines[primary].Line = cache.Line{Valid: true, Block: block, Dirty: store}
	}

	p.Record(statSet, res)
	p.epochAccesses[primary]++
	if !res.Hit {
		p.epochMisses[primary]++
	}

	p.sinceEpoch++
	if p.sinceEpoch >= p.cfg.Epoch {
		p.rebalance()
	}
	return res
}

// rebalance re-derives the hot→cold partner chains from the epoch
// counters.  Chains whose head cooled are dissolved entirely; chains whose
// head still misses heavily grow by one cold line (up to MaxChain); new
// chains pair the most-missed free sets with the least-accessed free sets.
func (p *PartnerCache) rebalance() {
	n := len(p.lines)
	var accSum, missSum uint64
	for s := 0; s < n; s++ {
		accSum += p.epochAccesses[s]
		missSum += p.epochMisses[s]
	}
	accMean := float64(accSum) / float64(n)
	missMean := float64(missSum) / float64(n)

	hotStill := func(s int) bool {
		return missMean > 0 && float64(p.epochMisses[s]) >= p.cfg.HotFactor*missMean
	}

	// Walk existing chains (heads are linked lines that are not members).
	// A chain is alive if its head either still misses heavily or keeps
	// hitting in the chain — a chain that absorbed its conflict has low
	// misses but high partner hits, and must not be dissolved for
	// succeeding.
	wantGrow := p.growBuf[:0]
	for s := 0; s < n; s++ {
		if !p.lines[s].linked || p.lines[s].member {
			continue
		}
		cooled := p.epochPartnerHits[s] == 0 && !hotStill(s)
		if cooled {
			// Dissolve the whole chain.
			for _, m := range p.chain(s)[1:] {
				p.lines[m].member = false
			}
			cur := s
			for p.lines[cur].linked {
				next := p.lines[cur].partner
				p.lines[cur].linked = false
				cur = next
			}
			continue
		}
		if hotStill(s) && len(p.chain(s)) <= p.cfg.MaxChain {
			wantGrow = append(wantGrow, s)
		}
	}

	// Cold free lines, coldest-first by epoch accesses (stable order by
	// set index for determinism).
	free := func(s int) bool { return !p.lines[s].linked && !p.lines[s].member }
	cold := p.coldBuf[:0]
	if missMean > 0 {
		for s := 0; s < n; s++ {
			if free(s) && !hotStill(s) && float64(p.epochAccesses[s]) <= p.cfg.ColdFactor*accMean {
				cold = append(cold, s)
			}
		}
	}
	ci := 0
	takeCold := func() int {
		if ci >= len(cold) {
			return -1
		}
		s := cold[ci]
		ci++
		return s
	}

	// Grow struggling chains first (they proved demand), then create new
	// chains for hot free sets.
	for _, head := range wantGrow {
		c := takeCold()
		if c < 0 {
			break
		}
		tail := p.chain(head)[len(p.chain(head))-1]
		p.lines[tail].linked = true
		p.lines[tail].partner = c
		p.lines[c].member = true
	}
	if missMean > 0 {
		for s := 0; s < n && ci < len(cold); s++ {
			if !free(s) || !hotStill(s) {
				continue
			}
			c := takeCold()
			if c < 0 {
				break
			}
			if c == s { // cannot partner itself
				c = takeCold()
				if c < 0 {
					break
				}
			}
			p.lines[s].linked = true
			p.lines[s].partner = c
			p.lines[c].member = true
		}
	}

	for s := 0; s < n; s++ {
		p.epochAccesses[s] = 0
		p.epochMisses[s] = 0
		p.epochPartnerHits[s] = 0
	}
	p.sinceEpoch = 0
	p.growBuf, p.coldBuf = wantGrow, cold
}
