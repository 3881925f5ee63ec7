// Package sim provides a declarative, JSON-serialisable description of a
// complete simulation — machine geometry, scheme, workload, optional
// split L1I and SMT thread mix — and runs it.  It is the configuration
// surface a downstream user scripts against (cmd/cachesim -config),
// mirroring how the paper's experiments were driven by SimpleScalar
// configuration files.
package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/core"
	"cacheuniformity/internal/hier"
	"cacheuniformity/internal/indexing"
	"cacheuniformity/internal/smt"
	"cacheuniformity/internal/stats"
	"cacheuniformity/internal/trace"
	"cacheuniformity/internal/workload"
)

// CacheSpec is one cache level's geometry.
type CacheSpec struct {
	// KB is the capacity in KiB.
	KB int `json:"kb"`
	// BlockBytes is the line size (default 32).
	BlockBytes int `json:"block_bytes,omitempty"`
	// Ways is the associativity (default 1 for L1, 8 for L2).
	Ways int `json:"ways,omitempty"`
}

// Spec describes a whole run.  Exactly one of Workload or Threads must be
// set.
type Spec struct {
	// L1D geometry; the zero value means the paper's 32 KiB direct-mapped.
	L1D CacheSpec `json:"l1d"`
	// L1I, if present, adds a split instruction cache; fetches route to it.
	L1I *CacheSpec `json:"l1i,omitempty"`
	// L2, if present, backs the L1s; the zero value of the field omits it.
	L2 *CacheSpec `json:"l2,omitempty"`
	// Scheme is a core scheme name ("baseline", "xor", "adaptive", ...).
	// Ignored for SMT runs (Threads set).
	Scheme string `json:"scheme,omitempty"`
	// Workload is a benchmark name for single-thread runs.
	Workload string `json:"workload,omitempty"`
	// FetchesPerData > 0 mixes an instruction stream into the workload at
	// that ratio (requires L1I for split routing, else fetches go to L1D).
	FetchesPerData int `json:"fetches_per_data,omitempty"`
	// Threads lists 2 to 16 per-thread benchmarks for an SMT run over a
	// shared L1D (round-robin interleaved, thread i seeded with Seed+i).
	Threads []string `json:"threads,omitempty"`
	// ThreadIndexing names each thread's index function for SMT runs:
	// "modulo", "xor", "odd_multiplier:<p>", "prime_modulo", "polynomial".
	// Empty means all-modulo.
	ThreadIndexing []string `json:"thread_indexing,omitempty"`
	// TraceLength is accesses per thread (default 300000).
	TraceLength int `json:"trace_length,omitempty"`
	// Seed feeds the generators (default: the paper seed).
	Seed uint64 `json:"seed,omitempty"`
	// MissPenalty is the L1 miss cost for the closed-form AMAT (default 20).
	MissPenalty float64 `json:"miss_penalty,omitempty"`
}

// Report is the outcome of one run.
type Report struct {
	Scheme          string  `json:"scheme"`
	Workload        string  `json:"workload"`
	Accesses        uint64  `json:"accesses"`
	MissRate        float64 `json:"miss_rate"`
	AMAT            float64 `json:"amat"`
	CyclesPerAccess float64 `json:"cycles_per_access"`
	L2MissRate      float64 `json:"l2_miss_rate,omitempty"`
	L1IMissRate     float64 `json:"l1i_miss_rate,omitempty"`
	MissKurtosis    float64 `json:"miss_kurtosis"`
	MissSkewness    float64 `json:"miss_skewness"`
	Gini            float64 `json:"gini"`
	LASPercent      float64 `json:"las_percent"`
}

// Load parses a JSON spec.
func Load(r io.Reader) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("sim: %w", err)
	}
	return s, nil
}

// fillDefaults normalises the spec in place.
func (s *Spec) fillDefaults() {
	if s.L1D.KB == 0 {
		s.L1D.KB = 32
	}
	if s.L1D.BlockBytes == 0 {
		s.L1D.BlockBytes = 32
	}
	if s.L1D.Ways == 0 {
		s.L1D.Ways = 1
	}
	if s.L1I != nil {
		if s.L1I.KB == 0 {
			s.L1I.KB = 32
		}
		if s.L1I.BlockBytes == 0 {
			s.L1I.BlockBytes = 32
		}
		if s.L1I.Ways == 0 {
			s.L1I.Ways = 1
		}
	}
	if s.L2 != nil {
		if s.L2.KB == 0 {
			s.L2.KB = 256
		}
		if s.L2.BlockBytes == 0 {
			s.L2.BlockBytes = 32
		}
		if s.L2.Ways == 0 {
			s.L2.Ways = 8
		}
	}
	if s.Scheme == "" {
		s.Scheme = "baseline"
	}
	if s.TraceLength == 0 {
		s.TraceLength = core.Default().TraceLength
	}
	if s.Seed == 0 {
		s.Seed = core.Default().Seed
	}
	if s.MissPenalty == 0 {
		s.MissPenalty = core.Default().MissPenalty
	}
}

// Validate reports spec errors without running anything.
func (s Spec) Validate() error {
	s.fillDefaults()
	return s.validate()
}

// threadMix is the SMT run's workload: the threads' benchmarks
// interleaved round-robin by workload.NewInterleaveSpec.
func (s Spec) threadMix() (workload.Spec, error) {
	parts := make([]workload.Spec, len(s.Threads))
	for i, th := range s.Threads {
		spec, err := workload.Lookup(th)
		if err != nil {
			return workload.Spec{}, err
		}
		parts[i] = spec
	}
	return workload.NewInterleaveSpec(strings.Join(s.Threads, "+"), parts)
}

// validate checks an already-defaulted spec; RunContext calls it
// directly after its own fillDefaults so defaults are not recomputed.
func (s Spec) validate() error {
	if (s.Workload == "") == (len(s.Threads) == 0) {
		return fmt.Errorf("sim: exactly one of workload or threads must be set")
	}
	if s.Workload != "" {
		if _, err := workload.Lookup(s.Workload); err != nil {
			return err
		}
		if _, err := core.SchemeByName(s.Scheme); err != nil {
			return err
		}
	}
	if len(s.Threads) > 0 {
		if _, err := s.threadMix(); err != nil {
			return err
		}
	}
	if len(s.ThreadIndexing) != 0 && len(s.ThreadIndexing) != len(s.Threads) {
		return fmt.Errorf("sim: thread_indexing has %d entries for %d threads",
			len(s.ThreadIndexing), len(s.Threads))
	}
	layout, err := s.layout(s.L1D)
	if err != nil {
		return err
	}
	for _, name := range s.ThreadIndexing {
		if _, err := parseIndexFunc(layout, name); err != nil {
			return err
		}
	}
	if s.TraceLength < 0 {
		return fmt.Errorf("sim: negative trace length")
	}
	return nil
}

func (s Spec) layout(c CacheSpec) (addr.Layout, error) {
	lines := c.KB * 1024 / c.BlockBytes
	if c.Ways <= 0 || lines%c.Ways != 0 {
		return addr.Layout{}, fmt.Errorf("sim: %d ways do not divide %d lines", c.Ways, lines)
	}
	return addr.NewLayout(c.BlockBytes, lines/c.Ways, addr.DefaultAddressBits)
}

// parseIndexFunc resolves a thread_indexing entry.
func parseIndexFunc(l addr.Layout, name string) (indexing.Func, error) {
	switch {
	case name == "" || name == "modulo":
		return indexing.NewModulo(l), nil
	case name == "xor":
		return indexing.NewXOR(l), nil
	case name == "prime_modulo":
		return indexing.NewPrimeModulo(l), nil
	case name == "polynomial":
		return indexing.NewPolynomial(l)
	case strings.HasPrefix(name, "odd_multiplier:"):
		p, err := strconv.ParseUint(strings.TrimPrefix(name, "odd_multiplier:"), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sim: bad multiplier in %q", name)
		}
		return indexing.NewOddMultiplier(l, p)
	case name == "odd_multiplier":
		return indexing.NewOddMultiplier(l, 21)
	default:
		return nil, fmt.Errorf("sim: unknown index function %q", name)
	}
}

// RunContext executes the spec and produces a report.  Cancellation
// stops the generator pumps and the hierarchy replay within one batch and
// returns the context's error.
func (s Spec) RunContext(ctx context.Context) (Report, error) {
	s.fillDefaults()
	if err := s.validate(); err != nil {
		return Report{}, err
	}
	l1Layout, layoutErr := s.layout(s.L1D)
	if layoutErr != nil {
		return Report{}, layoutErr
	}

	// Build the reference stream factory.  It is replayable: profile-driven
	// schemes consume one stream to build their index, and the hierarchy
	// replays a fresh, identical one — nothing is ever materialized.
	// validate() has already resolved every workload name, so the lookups
	// below cannot fail.
	var sf trace.StreamFunc
	var label string
	if s.Workload != "" {
		spec, err := workload.Lookup(s.Workload)
		if err != nil {
			return Report{}, err
		}
		if s.FetchesPerData > 0 {
			sf = workload.MixedStreamFuncCtx(ctx, spec, s.Seed, s.TraceLength, s.FetchesPerData)
		} else {
			sf = spec.StreamFuncCtx(ctx, s.Seed, s.TraceLength)
		}
		label = s.Workload
	} else {
		mix, err := s.threadMix()
		if err != nil {
			return Report{}, err
		}
		sf = mix.StreamFuncCtx(ctx, s.Seed, len(s.Threads)*s.TraceLength)
		label = mix.Name
	}

	// Build the L1D model.
	var l1d cache.Model
	var amatFn func(cache.Counters, float64) float64
	if len(s.Threads) > 0 {
		funcs := make([]indexing.Func, len(s.Threads))
		for i := range s.Threads {
			name := ""
			if i < len(s.ThreadIndexing) {
				name = s.ThreadIndexing[i]
			}
			f, err := parseIndexFunc(l1Layout, name)
			if err != nil {
				return Report{}, err
			}
			funcs[i] = f
		}
		shared, err := smt.NewSharedIndexCache(l1Layout, funcs)
		if err != nil {
			return Report{}, err
		}
		l1d = shared
		amatFn = func(c cache.Counters, p float64) float64 {
			return hier.AMATSimple(c, hier.DefaultLatencies, p)
		}
	} else {
		scheme, err := core.SchemeByName(s.Scheme)
		if err != nil {
			return Report{}, err
		}
		l1d, err = scheme.Build(l1Layout, sf)
		if err != nil {
			return Report{}, err
		}
		amatFn = scheme.AMAT
	}

	// Assemble the hierarchy.
	cfg := hier.Config{L1D: l1d}
	var l1i *cache.Cache
	if s.L1I != nil {
		layout, err := s.layout(*s.L1I)
		if err != nil {
			return Report{}, err
		}
		l1i, err = cache.New(cache.Config{Layout: layout, Ways: s.L1I.Ways, WriteAllocate: true})
		if err != nil {
			return Report{}, err
		}
		cfg.L1I = l1i
	}
	var l2 *cache.Cache
	if s.L2 != nil {
		layout, err := s.layout(*s.L2)
		if err != nil {
			return Report{}, err
		}
		l2, err = cache.New(cache.Config{Layout: layout, Ways: s.L2.Ways, WriteAllocate: true})
		if err != nil {
			return Report{}, err
		}
		cfg.L2 = l2
	}
	h, err := hier.New(cfg)
	if err != nil {
		return Report{}, err
	}
	cpa, err := h.RunBatched(sf(), nil)
	if err != nil {
		return Report{}, err
	}

	ctr := l1d.Counters()
	rep := Report{
		Scheme:          s.Scheme,
		Workload:        label,
		Accesses:        ctr.Accesses,
		MissRate:        ctr.MissRate(),
		AMAT:            amatFn(ctr, s.MissPenalty),
		CyclesPerAccess: cpa,
	}
	if len(s.Threads) > 0 {
		rep.Scheme = l1d.Name()
	}
	if l2 != nil {
		rep.L2MissRate = l2.Counters().MissRate()
	}
	if l1i != nil {
		rep.L1IMissRate = l1i.Counters().MissRate()
	}
	ps := l1d.PerSet()
	if m, err := stats.MomentsOfCounts(ps.Misses); err == nil {
		rep.MissKurtosis = m.Kurtosis
		rep.MissSkewness = m.Skewness
	}
	rep.Gini = stats.Gini(ps.Accesses)
	rep.LASPercent = stats.ClassifySets(ps.Hits, ps.Misses, ps.Accesses).LASPercent()
	return rep, nil
}
