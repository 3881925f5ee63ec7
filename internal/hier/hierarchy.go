package hier

import (
	"errors"
	"fmt"
	"io"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/trace"
)

// Config describes the paper's simulated hierarchy: split L1 instruction
// and data caches over a unified L2.
type Config struct {
	// L1D is the data cache under study (any cache.Model, including the
	// programmable associativity schemes).
	L1D cache.Model
	// L1I is the instruction cache; nil routes fetches to L1D (unified L1).
	L1I cache.Model
	// L2 is the unified second level; nil means misses go straight to
	// memory.
	L2 *cache.Cache
	// Latencies are the cycle costs; zero value applies DefaultLatencies.
	Latencies Latencies
}

// Hierarchy drives a trace through L1s backed by a unified L2 and accounts
// cycles exactly.
type Hierarchy struct {
	l1d cache.Model
	l1i cache.Model
	l2  *cache.Cache
	lat Latencies

	// Cycles is the total memory-access cycles expended.
	Cycles uint64
	// L1DHitCycles accumulates the probe cycles of L1D hits, the input of
	// a measured (rather than closed-form) AMAT.
	L1DHitCycles uint64
	// Accesses counts all references routed through the hierarchy.
	Accesses uint64
}

// New assembles a hierarchy.  L1D is required.
func New(cfg Config) (*Hierarchy, error) {
	if cfg.L1D == nil {
		return nil, fmt.Errorf("hier: L1D model is required")
	}
	lat := cfg.Latencies
	if lat == (Latencies{}) {
		lat = DefaultLatencies
	}
	return &Hierarchy{l1d: cfg.L1D, l1i: cfg.L1I, l2: cfg.L2, lat: lat}, nil
}

// L1D returns the data cache model.
func (h *Hierarchy) L1D() cache.Model { return h.l1d }

// L1I returns the instruction cache model (nil if unified).
func (h *Hierarchy) L1I() cache.Model { return h.l1i }

// L2 returns the unified second-level cache (nil if absent).
func (h *Hierarchy) L2() *cache.Cache { return h.l2 }

// Latencies returns the configured cycle costs.
func (h *Hierarchy) Latencies() Latencies { return h.lat }

// Access routes one reference through the hierarchy and returns the cycles
// it consumed.
//
//lint:hotpath called once per reference
func (h *Hierarchy) Access(a trace.Access) float64 {
	l1 := h.l1d
	if a.Kind == trace.Fetch && h.l1i != nil {
		l1 = h.l1i
	}
	res := l1.Access(a)
	cycles := 0.0
	switch {
	case res.Hit:
		cycles = float64(res.HitCycles)
		if l1 == h.l1d {
			h.L1DHitCycles += uint64(res.HitCycles)
		}
	default:
		// L1 miss: pay the L1 probe plus the next level.
		cycles = h.lat.L1Hit
		if res.SecondaryProbe {
			cycles++ // the fruitless secondary probe
		}
		if h.l2 != nil {
			l2res := h.l2.Access(trace.Access{Addr: a.Addr, Kind: trace.Read, Thread: a.Thread})
			cycles += h.lat.MissPenalty
			if !l2res.Hit {
				cycles += h.lat.Memory
			}
		} else {
			cycles += h.lat.MissPenalty + h.lat.Memory
		}
	}
	// Dirty evictions write back into the L2 (no extra latency charged:
	// writebacks are buffered off the critical path).
	if res.Writeback && h.l2 != nil {
		h.l2.Access(trace.Access{Addr: addr.Addr(res.EvictedBlock << h.blockShift()), Kind: trace.Write, Thread: a.Thread})
	}
	// Write-through stores are forwarded immediately (also buffered).
	if res.WroteThrough && h.l2 != nil && res.Hit {
		h.l2.Access(trace.Access{Addr: a.Addr, Kind: trace.Write, Thread: a.Thread})
	}
	h.Cycles += uint64(cycles)
	h.Accesses++
	return cycles
}

// blockShift recovers the L1D block-offset width for reconstructing
// writeback addresses.
func (h *Hierarchy) blockShift() uint {
	type layouter interface{ Layout() addr.Layout }
	if lc, ok := h.l1d.(layouter); ok {
		return lc.Layout().OffsetBits
	}
	if h.l2 != nil {
		return h.l2.Layout().OffsetBits
	}
	return 5 // 32-byte blocks, the paper's configuration
}

// Run replays a trace and returns the average cycles per access.
func (h *Hierarchy) Run(tr trace.Trace) float64 {
	for _, a := range tr {
		h.Access(a)
	}
	return h.AverageAccessTime()
}

// RunBatched replays a batched stream and returns the average cycles per
// access, using the caller's reusable buffer (nil means a fresh
// trace.DefaultBatch buffer).  Peak memory is the buffer, independent of
// stream length.
//
//lint:hotpath the end-to-end replay loop
func (h *Hierarchy) RunBatched(r trace.BatchReader, buf []trace.Access) (float64, error) {
	if len(buf) == 0 {
		buf = make([]trace.Access, trace.DefaultBatch)
	}
	for {
		n, err := r.ReadBatch(buf)
		if n == 0 {
			trace.CloseBatch(r)
			if err == nil || errors.Is(err, io.EOF) {
				return h.AverageAccessTime(), nil
			}
			return h.AverageAccessTime(), err
		}
		for _, a := range buf[:n] {
			h.Access(a)
		}
	}
}

// AverageAccessTime returns measured cycles per access so far.
func (h *Hierarchy) AverageAccessTime() float64 {
	if h.Accesses == 0 {
		return 0
	}
	return float64(h.Cycles) / float64(h.Accesses)
}

// EffectiveMissPenalty returns the L1 miss cost implied by the observed L2
// behaviour: MissPenalty + L2missRate × Memory.  Feeding this into the
// closed-form AMAT equations reproduces the paper's numbers with a
// measured rather than assumed penalty.
func (h *Hierarchy) EffectiveMissPenalty() float64 {
	if h.l2 == nil {
		return h.lat.MissPenalty + h.lat.Memory
	}
	return h.lat.MissPenalty + h.l2.Counters().MissRate()*h.lat.Memory
}

// Reset clears all levels and cycle counters.
func (h *Hierarchy) Reset() {
	h.l1d.Reset()
	if h.l1i != nil {
		h.l1i.Reset()
	}
	if h.l2 != nil {
		h.l2.Reset()
	}
	h.Cycles = 0
	h.L1DHitCycles = 0
	h.Accesses = 0
}
