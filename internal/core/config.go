package core

import (
	"context"
	"runtime"

	"cacheuniformity/internal/addr"
)

// Config fixes the experimental setup; the zero value is completed by
// Default().  The result-relevant fields (Layout, TraceLength, Seed,
// MissPenalty) fully determine every Result the engines produce — the
// simulator is deterministic by construction — so Canonical() of those
// fields is the identity a content-addressed result store hashes.  The
// remaining fields only steer *how* the grid is computed and are excluded
// from that identity.
type Config struct {
	// Layout is the L1 geometry (paper: 32 KiB, 32 B blocks, 1024 sets).
	Layout addr.Layout `json:"layout"`
	// TraceLength is the number of accesses generated per benchmark.
	TraceLength int `json:"trace_length"`
	// Seed feeds the workload generators.
	Seed uint64 `json:"seed"`
	// MissPenalty is the L1 miss cost in cycles for AMAT.
	MissPenalty float64 `json:"miss_penalty"`
	// Parallelism bounds concurrent workers; 0 means GOMAXPROCS.  The grid
	// parallelises over benchmarks; results are identical at every value.
	Parallelism int `json:"-"`
	// Traces, when non-nil, supplies compiled traces: the engines replay a
	// benchmark's decoded artifact (compiled once, cached by the source)
	// instead of pumping its generator, and the fan-out grid may shard one
	// benchmark's replay across spare workers.  Benchmarks without a
	// trace-cache identity (Spec.Key == "") and source failures fall back
	// to the generator silently — a trace source can change only how fast a
	// result is computed, never what it is.  Excluded from serialisation
	// and from Canonical() for the same reason as Memo.
	Traces TraceSource `json:"-"`
	// Memo, when non-nil, intercepts the name-based evaluation entry
	// points (Grid, RunOne): the call is handed to the
	// memoizer — in practice internal/resultstore — which serves cached
	// cells and computes only the missing ones through the real engines.
	// Callers that assemble a Config once (the CLIs, the server) get
	// incremental recomputation without threading a store handle through
	// every figure.  Excluded from serialisation and from Canonical():
	// memoization must never influence what a result is, only whether it
	// is recomputed.
	Memo Memoizer `json:"-"`
}

// Memoizer is the interception contract of Config.Memo.  Implementations
// must preserve the intercepted functions' observable behaviour exactly —
// same results, same partial-results-on-cancellation contract — and must
// clear Config.Memo before re-entering core, or the call would recurse.
type Memoizer interface {
	// MemoGrid stands in for Grid.  Scheme and benchmark names are
	// pre-validated: every name resolves.
	MemoGrid(ctx context.Context, cfg Config, schemeNames, benchNames []string) (map[string]map[string]Result, error)
	// MemoCell stands in for RunOne, with RunOne's (res, res.Err) error
	// contract.
	MemoCell(ctx context.Context, cfg Config, schemeName, benchName string) (Result, error)
}

// Default returns the paper's configuration.
func Default() Config {
	return Config{
		Layout:      addr.MustLayout(32, 1024, 32),
		TraceLength: 300_000,
		Seed:        20110913, // ICPP 2011 opened September 13
		MissPenalty: 20,
		Parallelism: 0,
	}
}

// Canonical returns the semantic identity of the configuration: every
// result-relevant zero field is filled from Default, and every field that
// cannot influence a Result (Parallelism, Traces, Memo) is zeroed.  Two
// configs with equal Canonical() values produce byte-identical results,
// so Canonical() is what a result store must hash — hashing an
// unnormalized Config would give the same experiment two different keys
// (false misses), and hashing Parallelism would fragment the cache across
// machines.  Canonical is idempotent and the returned value round-trips
// exactly through the canonical JSON codec (TestConfigCanonicalRoundTrip).
func (c Config) Canonical() Config {
	d := Default()
	if c.Layout == (addr.Layout{}) {
		c.Layout = d.Layout
	}
	if c.TraceLength == 0 {
		c.TraceLength = d.TraceLength
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.MissPenalty == 0 {
		c.MissPenalty = d.MissPenalty
	}
	c.Parallelism = 0
	c.Traces = nil
	c.Memo = nil
	return c
}

// normalized fills zero fields from Default and resolves Parallelism to a
// concrete worker count, keeping the execution-steering fields intact.
func (c Config) normalized() Config {
	n := c.Canonical()
	n.Parallelism = c.Parallelism
	if n.Parallelism <= 0 {
		n.Parallelism = runtime.GOMAXPROCS(0)
	}
	n.Traces = c.Traces
	n.Memo = c.Memo
	return n
}
