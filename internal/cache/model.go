package cache

import (
	"errors"
	"io"

	"cacheuniformity/internal/trace"
)

// AccessResult describes the outcome of one cache access.
type AccessResult struct {
	// Hit reports whether the block was found (in any probe location).
	Hit bool
	// SecondaryProbe reports that the model consulted an alternate
	// location (column-associative rehash, adaptive OUT directory,
	// partner line, ...).
	SecondaryProbe bool
	// SecondaryHit reports that the hit came from the alternate location.
	SecondaryHit bool
	// HitCycles is the lookup latency on a hit: 1 for a first-probe hit,
	// 2 for a column-associative rehash hit, 3 for an adaptive-cache OUT
	// hit (paper Eqs. 8 and 9).  Zero on a miss.
	HitCycles int
	// Evicted reports a valid block was displaced from the cache entirely.
	Evicted bool
	// EvictedBlock is the displaced block address when Evicted.
	EvictedBlock uint64
	// Writeback reports the displaced block was dirty.
	Writeback bool
	// WroteThrough reports a store that must also be sent to the next
	// level immediately (write-through caches only).
	WroteThrough bool
}

// Counters aggregates whole-cache event counts, the raw material for the
// paper's miss-rate and AMAT metrics.
type Counters struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
	// PrimaryHits counts hits satisfied by the first probe.
	PrimaryHits uint64
	// SecondaryHits counts hits that needed the alternate location.
	SecondaryHits uint64
	// SecondaryProbeMisses counts misses that performed a secondary probe
	// before missing (they pay the extra probe latency; Eq. 9's
	// "rehash misses").
	SecondaryProbeMisses uint64
	Evictions            uint64
	Writebacks           uint64
}

// MissRate returns Misses/Accesses, or 0 for an idle cache.
func (c Counters) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// HitRate returns Hits/Accesses, or 0 for an idle cache.
func (c Counters) HitRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Accesses)
}

// Add records an access outcome in the aggregate counters.
func (c *Counters) Add(r AccessResult) {
	c.Accesses++
	if r.Hit {
		c.Hits++
		if r.SecondaryHit {
			c.SecondaryHits++
		} else {
			c.PrimaryHits++
		}
	} else {
		c.Misses++
		if r.SecondaryProbe {
			c.SecondaryProbeMisses++
		}
	}
	if r.Evicted {
		c.Evictions++
	}
	if r.Writeback {
		c.Writebacks++
	}
}

// PerSet snapshots per-set activity; index is the set number.  Hits are
// attributed to the set that supplied the data, misses to the primary set
// of the missing address.
type PerSet struct {
	Accesses []uint64
	Hits     []uint64
	Misses   []uint64
}

// NewPerSet allocates counters for n sets.
func NewPerSet(n int) PerSet {
	return PerSet{
		Accesses: make([]uint64, n),
		Hits:     make([]uint64, n),
		Misses:   make([]uint64, n),
	}
}

// Reset zeroes all per-set counters in place.
func (p *PerSet) Reset() {
	for i := range p.Accesses {
		p.Accesses[i] = 0
		p.Hits[i] = 0
		p.Misses[i] = 0
	}
}

// Clone deep-copies the counters so callers cannot alias live state.
func (p PerSet) Clone() PerSet {
	c := NewPerSet(len(p.Accesses))
	copy(c.Accesses, p.Accesses)
	copy(c.Hits, p.Hits)
	copy(c.Misses, p.Misses)
	return c
}

// Tally is a model's statistics: the aggregate Counters and the per-set
// counts.  Every per-access model embeds one and counts each access
// through Record, which also gives it Model's Counters and PerSet; its
// own Reset must call Tally.Reset.  Only the direct-mapped kernel and the
// shard stitch, in this package, write the counts without Record: they
// count a whole batch at once.
type Tally struct {
	counters Counters
	perSet   PerSet
}

// NewTally returns a zeroed tally over sets sets.
func NewTally(sets int) Tally { return Tally{perSet: NewPerSet(sets)} }

// Record counts one access and its outcome against set, which is the set
// that supplied a hit or the primary set of a miss.
func (t *Tally) Record(set int, res AccessResult) {
	t.counters.Add(res)
	t.perSet.Accesses[set]++
	if res.Hit {
		t.perSet.Hits[set]++
	} else {
		t.perSet.Misses[set]++
	}
}

// RecordSplit counts one access against set but a hit against hitSet:
// for a model that charges every access to its primary set while the data
// may come from another.
func (t *Tally) RecordSplit(set, hitSet int, res AccessResult) {
	t.counters.Add(res)
	t.perSet.Accesses[set]++
	if res.Hit {
		t.perSet.Hits[hitSet]++
	} else {
		t.perSet.Misses[set]++
	}
}

// RecordEviction counts an eviction, and a writeback when dirty, in the
// aggregate counters only: it is a side effect of an access whose own
// outcome Record counted.
func (t *Tally) RecordEviction(dirty bool) {
	t.counters.Evictions++
	if dirty {
		t.counters.Writebacks++
	}
}

// Counters returns the aggregate counts since construction or Reset.
func (t *Tally) Counters() Counters { return t.counters }

// PerSet returns a copy of the per-set counts.
func (t *Tally) PerSet() PerSet { return t.perSet.Clone() }

// Reset zeroes every count in place.
func (t *Tally) Reset() {
	t.counters = Counters{}
	t.perSet.Reset()
}

// Model is the interface every cache organisation in this repository
// implements: the plain set-associative cache below and the programmable
// associativity schemes in package assoc.
type Model interface {
	// Name identifies the organisation in reports.
	Name() string
	// Sets returns the number of sets tracked by PerSet.
	Sets() int
	// Access simulates one reference and returns its outcome.
	Access(a trace.Access) AccessResult
	// Counters returns aggregate counts since construction or Reset.
	Counters() Counters
	// PerSet returns a snapshot of per-set counters.
	PerSet() PerSet
	// Reset clears contents and counters.
	Reset()
}

// Run replays a whole trace through a model and returns the final counters.
func Run(m Model, tr trace.Trace) Counters {
	for _, a := range tr {
		m.Access(a)
	}
	return m.Counters()
}

// BatchAccessor is an optional fast path: models that implement it replay
// a whole batch in one concrete call, so the per-access virtual dispatch
// of Model.Access disappears from the hot loop.
type BatchAccessor interface {
	// AccessBatch simulates every access in order, recording outcomes in
	// the model's counters exactly as per-access Access calls would.
	AccessBatch(batch []trace.Access)
}

// RunBatched replays a batched stream through a model using the caller's
// reusable buffer (nil means a fresh trace.DefaultBatch buffer).  Peak
// memory is the buffer, independent of stream length.
func RunBatched(m Model, r trace.BatchReader, buf []trace.Access) (Counters, error) {
	if len(buf) == 0 {
		buf = make([]trace.Access, trace.DefaultBatch)
	}
	// Deferred (not inline at n==0) so a panicking model releases the
	// reader too: a stranded reader leaves its generator pump blocked
	// mid-send forever.
	defer trace.CloseBatch(r)
	sink := NewSink(m)
	for {
		n, err := r.ReadBatch(buf)
		if n == 0 {
			if err == nil || errors.Is(err, io.EOF) {
				return m.Counters(), nil
			}
			return m.Counters(), err
		}
		if err := sink.ConsumeBatch(buf[:n]); err != nil {
			return m.Counters(), err
		}
	}
}

// ModelSink adapts a Model to trace.BatchSink, resolving the BatchAccessor
// fast path once at construction instead of per batch.
type ModelSink struct {
	m    Model
	ba   BatchAccessor
	fast bool
}

// NewSink wraps a model as a trace.BatchSink so it can ride a
// trace.Broadcast fan-out: the batch slice is consumed synchronously and
// never retained, exactly as RunBatched's hot loop would.
func NewSink(m Model) *ModelSink {
	ba, fast := m.(BatchAccessor)
	return &ModelSink{m: m, ba: ba, fast: fast}
}

// ConsumeBatch implements trace.BatchSink; it never fails (models have no
// error path), so a broadcast always replays the full stream through it.
//
//lint:hotpath broadcast fan-out consumes every batch through here
func (s *ModelSink) ConsumeBatch(batch []trace.Access) error {
	if s.fast {
		s.ba.AccessBatch(batch)
	} else {
		for _, a := range batch {
			s.m.Access(a)
		}
	}
	return nil
}
