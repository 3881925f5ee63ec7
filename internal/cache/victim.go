package cache

import (
	"fmt"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/indexing"
	"cacheuniformity/internal/trace"
)

// VictimCache pairs a primary cache with a small fully-associative victim
// buffer (Jouppi 1990, reference [14] of the paper).  Evictions from the
// primary land in the buffer; a primary miss that hits the buffer swaps the
// block back.  The paper frames the adaptive group-associative cache as
// "selective victim caching", so the plain victim cache is the natural
// comparison substrate.
//
// Its per-set counts are its own, not the primary's: an access counts
// against the primary's set for its address, and a buffer hit counts as
// a hit there.
type VictimCache struct {
	Tally
	primary *Cache
	index   indexing.Func
	layout  addr.Layout

	victim     []Line
	victimRepl SetPolicy
}

// VictimHitCycles is the latency of a hit served from the victim buffer:
// one cycle for the primary probe plus one for the buffer.
const VictimHitCycles = 2

// NewVictimCache wraps the primary cache with an entries-deep victim
// buffer.
func NewVictimCache(primary *Cache, entries int) (*VictimCache, error) {
	if primary == nil {
		return nil, fmt.Errorf("cache: victim cache requires a primary cache")
	}
	if entries <= 0 {
		return nil, fmt.Errorf("cache: victim buffer capacity %d must be positive", entries)
	}
	v := &VictimCache{Tally: NewTally(primary.Sets()), primary: primary, index: primary.Index(), layout: primary.Layout()}
	v.victim = make([]Line, entries)
	v.victimRepl = LRU{}.NewSet(entries)
	return v, nil
}

// Name implements Model.
func (v *VictimCache) Name() string { return v.primary.Name() + "+victim" }

// Sets implements Model: the primary's sets.
func (v *VictimCache) Sets() int { return v.primary.Sets() }

// Reset implements Model.
func (v *VictimCache) Reset() {
	v.primary.Reset()
	for i := range v.victim {
		v.victim[i] = Line{}
	}
	v.victimRepl = LRU{}.NewSet(len(v.victim))
	v.Tally.Reset()
}

// Access implements Model.
func (v *VictimCache) Access(a trace.Access) AccessResult {
	block := v.layout.Block(a.Addr)
	pres := v.primary.Access(a)
	res := pres
	if !pres.Hit {
		// Probe the victim buffer.
		res.SecondaryProbe = true
		hitWay := -1
		for w := range v.victim {
			if v.victim[w].Valid && v.victim[w].Block == block {
				hitWay = w
				break
			}
		}
		if hitWay >= 0 {
			// The primary has already filled the block (counting a miss in
			// its own counters); at this level it is a secondary hit.  The
			// buffer entry is consumed.
			v.victim[hitWay].Valid = false
			res.Hit = true
			res.SecondaryHit = true
			res.HitCycles = VictimHitCycles
		}
	}
	// Primary evictions spill into the buffer.
	if pres.Evicted {
		way := -1
		for w := range v.victim {
			if !v.victim[w].Valid {
				way = w
				break
			}
		}
		if way < 0 {
			way = v.victimRepl.Victim()
		}
		v.victim[way] = Line{Valid: true, Block: pres.EvictedBlock, Dirty: pres.Writeback}
		v.victimRepl.Fill(way)
		// The block survives in the buffer; it has not left the cache
		// system, so suppress the eviction at this level.
		res.Evicted = false
		res.Writeback = false
	}
	v.Record(v.index.Index(a.Addr), res)
	return res
}
