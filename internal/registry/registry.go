// Package registry is the declarative catalog behind every scheme and
// workload the simulator can run.  Each scheme kind (the paper's indexing
// and programmable-associativity families, the reference points, and the
// dynamic families in internal/dynamic) registers a name, a parameter
// schema, a validator and a builder; a Decl — a (kind, params) pair with
// canonical-JSON form — then instantiates a runnable Scheme without any
// compiled-in roster.  internal/core's default roster, roster files fed to
// the CLIs, and inline compositions in simd request bodies are all just
// collections of Decls resolved here, and internal/resultstore keys cells
// by the canonical declaration so memoisation distinguishes exactly the
// compositions that compute different results.
//
// Registration happens in package init and is closed afterwards: the
// catalog is immutable at run time, so lookups need no locking and
// identical declarations always resolve to semantically identical
// builders.
package registry

import (
	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/hier"
	"cacheuniformity/internal/indexing"
	"cacheuniformity/internal/trace"
)

// Family classifies schemes the way the paper's sections do; it is the
// type behind core.Kind.
type Family string

const (
	// FamilyBaseline is the conventional direct-mapped cache.
	FamilyBaseline Family = "baseline"
	// FamilyIndexing covers the Section-II index functions.
	FamilyIndexing Family = "indexing"
	// FamilyProgrammable covers the Section-III associativity schemes.
	FamilyProgrammable Family = "programmable"
	// FamilyHybrid covers combinations (column-associative with
	// non-conventional primary indexes, Figure 8).
	FamilyHybrid Family = "hybrid"
	// FamilyReference covers context points outside the paper's two
	// families (higher associativities, victim cache, fully associative
	// bound).
	FamilyReference Family = "reference"
	// FamilyDynamic covers schemes that change their placement function
	// while a workload runs (internal/dynamic).
	FamilyDynamic Family = "dynamic"
)

// BuildFunc constructs a fresh model for a layout.  The profile factory
// yields a replayable stream of the workload; it is only invoked by
// profile-driven schemes (Givargis), which consume one whole
// stream per profiling pass.  Builders must not retain the factory.
type BuildFunc func(l addr.Layout, profile trace.StreamFunc) (cache.Model, error)

// ProfileBuildFunc constructs a model from a benchmark's shared profile
// instead of consuming a private profiling stream.  The profile is
// read-only and shared between every scheme of the benchmark's fan-out;
// builders must not mutate it.
type ProfileBuildFunc func(l addr.Layout, p *indexing.Profile) (cache.Model, error)

// AMATFunc computes a scheme's average memory access time from its
// counters and the L1 miss penalty, per the paper's Eqs. 8–9 or the
// textbook formula.
type AMATFunc func(ctr cache.Counters, missPenalty float64) float64

// Scheme is a named, buildable cache organisation — the unit the grid
// engine replays workloads through.  core.Scheme is an alias of this
// type.
type Scheme struct {
	Name        string
	Kind        Family
	Description string
	Build       BuildFunc
	// BuildFromProfile, when non-nil, lets the generate-once grid build
	// this scheme from the benchmark's shared indexing.Profile rather than
	// running a private profiling pass via Build's stream factory.  It must
	// produce a model identical to Build's on the same workload.
	BuildFromProfile ProfileBuildFunc
	AMAT             AMATFunc
	// Shardable is the kind's capability flag for segment-parallel replay
	// (see SchemeKind.Shardable): true only when sharded replay with the
	// windowed-exact merge is byte-identical to serial replay.  Hand-built
	// schemes default to false, which always falls back to serial replay.
	Shardable bool
	// Decl is the canonical declaration this scheme was instantiated from
	// (every parameter present, defaults filled).  It is the result-store
	// identity of the scheme; zero-valued on hand-built schemes, which
	// therefore cannot be memoised.
	Decl Decl
}

// AMATSimple is the default AMATFunc: the textbook formula with the
// repository's default latency model.
func AMATSimple(ctr cache.Counters, penalty float64) float64 {
	return hier.AMATSimple(ctr, hier.DefaultLatencies, penalty)
}
