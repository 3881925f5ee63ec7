package assoc

import (
	"fmt"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/indexing"
	"cacheuniformity/internal/trace"
)

// DynamicConfig tunes the runtime index selector.
type DynamicConfig struct {
	// Window is the number of accesses per evaluation window; at each
	// window boundary the candidate with the fewest shadow misses becomes
	// the live index function.  0 applies the default of 8192.
	Window int
	// Hysteresis is the fraction by which a challenger must beat the
	// incumbent's shadow misses to trigger a switch (switches flush the
	// cache, so they must pay for themselves).  0 applies the default of
	// 0.10; negative disables hysteresis.
	Hysteresis float64
	// MinSavings is the absolute number of window misses a challenger
	// must save before a switch is considered: a switch flushes up to
	// Sets lines, so small noisy differences must never trigger one.
	// 0 applies the default of Sets/8; negative disables the floor.
	MinSavings int
}

// DynamicIndexCache makes the paper's Figure-5 proposal fully dynamic: a
// direct-mapped cache that *continuously* evaluates several candidate
// index functions on shadow tag arrays (tag-only direct-mapped images fed
// by the same reference stream, in the spirit of set-dueling monitors) and
// reprograms itself to the best candidate at window boundaries.  Switching
// flushes the cache — blocks placed under the old mapping would otherwise
// be unfindable — so a hysteresis margin keeps it from flapping.
//
// The live lookup costs 1 cycle like any direct-mapped cache; the shadow
// arrays model the small tag-only monitor hardware the proposal would
// need.
type DynamicIndexCache struct {
	cache.DirectMapped
	name   string
	layout addr.Layout
	cfg    DynamicConfig
	cands  []indexing.Func

	live int // index into cands

	shadow       [][]uint64 // [candidate][set] resident block+1 (tag-only)
	shadowMisses []uint64
	sinceWindow  int

	// Switches counts index reprogrammings (diagnostics/ablation).
	Switches uint64
}

// NewDynamicIndexCache builds the selector over the candidate functions;
// cands[0] is the initial (conventional, per the paper) index.
func NewDynamicIndexCache(l addr.Layout, cands []indexing.Func, cfg DynamicConfig) (*DynamicIndexCache, error) {
	if len(cands) < 2 {
		return nil, fmt.Errorf("assoc: dynamic selector needs ≥ 2 candidates, got %d", len(cands))
	}
	name := "dynamic"
	for _, f := range cands {
		if f == nil {
			return nil, fmt.Errorf("assoc: nil candidate")
		}
		if f.Sets() > l.Sets() {
			return nil, fmt.Errorf("assoc: candidate %s reaches %d sets, layout has %d", f.Name(), f.Sets(), l.Sets())
		}
		name += "/" + f.Name()
	}
	if cfg.Window == 0 {
		cfg.Window = 8192
	}
	if cfg.Window < 0 {
		return nil, fmt.Errorf("assoc: window %d must be positive", cfg.Window)
	}
	if cfg.Hysteresis == 0 {
		cfg.Hysteresis = 0.10
	}
	if cfg.MinSavings == 0 {
		cfg.MinSavings = l.Sets() / 8
	}
	d := &DynamicIndexCache{DirectMapped: cache.NewDirectMapped(l.Sets()), name: name, layout: l, cfg: cfg, cands: cands}
	d.Reset()
	return d, nil
}

// DefaultDynamicCandidates returns the paper's evaluated index functions
// (conventional first, as the default).
func DefaultDynamicCandidates(l addr.Layout) []indexing.Func {
	return []indexing.Func{
		indexing.NewModulo(l),
		indexing.NewXOR(l),
		indexing.MustOddMultiplier(l, 21),
		indexing.NewPrimeModulo(l),
	}
}

// Name implements cache.Model.
func (d *DynamicIndexCache) Name() string { return d.name }

// Sets implements cache.Model.
func (d *DynamicIndexCache) Sets() int { return d.layout.Sets() }

// Live returns the name of the currently selected index function.
func (d *DynamicIndexCache) Live() string { return d.cands[d.live].Name() }

// Reset implements cache.Model.
func (d *DynamicIndexCache) Reset() {
	d.DirectMapped.Reset()
	d.live = 0
	d.shadow = make([][]uint64, len(d.cands))
	for i := range d.shadow {
		d.shadow[i] = make([]uint64, d.layout.Sets())
	}
	d.shadowMisses = make([]uint64, len(d.cands))
	d.sinceWindow = 0
	d.Switches = 0
}

// Access implements cache.Model.
//
//lint:hotpath per-access scheme hot path
func (d *DynamicIndexCache) Access(a trace.Access) cache.AccessResult {
	// Shadow monitors observe every access under every candidate mapping.
	key := d.layout.Block(a.Addr) + 1
	for c, f := range d.cands {
		set := f.Index(a.Addr)
		if d.shadow[c][set] != key {
			d.shadowMisses[c]++
			d.shadow[c][set] = key
		}
	}

	res := d.DirectMapped.Access(d.cands[d.live].Index(a.Addr), a, d.layout.OffsetBits)
	d.sinceWindow++
	if d.sinceWindow >= d.cfg.Window {
		d.evaluate()
	}
	return res
}

// evaluate closes the window: pick the candidate with the fewest shadow
// misses; switch (and flush) only if it beats the incumbent by the
// hysteresis margin.
func (d *DynamicIndexCache) evaluate() {
	best := d.live
	for c := range d.cands {
		if d.shadowMisses[c] < d.shadowMisses[best] {
			best = c
		}
	}
	margin := float64(d.shadowMisses[d.live]) * (1 - d.cfg.Hysteresis)
	savings := int64(d.shadowMisses[d.live]) - int64(d.shadowMisses[best])
	if best != d.live && float64(d.shadowMisses[best]) < margin && savings > int64(d.cfg.MinSavings) {
		d.live = best
		d.Switches++
		// Flush: the old placement is unreachable under the new mapping.
		// Dirty lines would be written back by real hardware; the model
		// discards them (the hierarchy sees no traffic — acceptable since
		// switches are rare by construction).
		d.Flush()
	}
	for c := range d.shadowMisses {
		d.shadowMisses[c] = 0
	}
	d.sinceWindow = 0
}
