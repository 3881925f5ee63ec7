package workload

import (
	"context"
	"fmt"
	"sort"

	"cacheuniformity/internal/trace"
)

// Suite groups benchmarks the way the paper's figures do.
type Suite string

const (
	// MiBench is the embedded-benchmark suite of Figures 1, 4, 6, 7, 9-14.
	MiBench Suite = "mibench"
	// SPEC2006 is the suite of the Figure-8 hybrid experiments.
	SPEC2006 Suite = "spec2006"
)

// GenerateFunc produces a trace of exactly n accesses (or fewer only if
// n ≤ 0) from a seed.
type GenerateFunc func(seed uint64, n int) trace.Trace

// Spec describes one synthetic benchmark.
type Spec struct {
	Name        string
	Suite       Suite
	Description string
	// Key is the spec's stable trace-cache identity: two specs with equal
	// Keys produce byte-identical streams for equal (seed, n), no matter
	// what display Name they carry.  Registered kernels get "kernel/<name>"
	// here; declared compositions get their canonical declaration from the
	// registry.  Empty means "not cacheable" — NewSpec streams are
	// arbitrary (fault injection, live readers) and must never be compiled
	// or replayed from a cache.
	Key string
	// Generate materializes the trace; it is a thin Collect wrapper over
	// Stream and yields the byte-identical access sequence.
	Generate GenerateFunc

	run func(*gen)
	// stream, when non-nil, overrides the kernel-pump stream — the seam
	// NewSpec uses to wire arbitrary (e.g. fault-injected) readers into
	// everything that consumes a Spec.
	stream func(ctx context.Context, seed uint64, n int) trace.BatchReader
}

// NewSpec builds a benchmark around an arbitrary stream constructor
// instead of a generator kernel.  It is the hook the fault-injection
// tests use to feed erroring, truncating or slow streams through the real
// grid engine; mk must return a fresh single-use reader on every call and
// should honour ctx for cancellation (wrap with trace.WithContext when in
// doubt).  The spec is not registered: it resolves only when passed
// explicitly (core.GridOf), never by name.
//
//lint:allow ctxflow the Generate closure implements the context-free GenerateFunc contract; streaming consumers go through StreamCtx.
func NewSpec(name string, suite Suite, desc string, mk func(ctx context.Context, seed uint64, n int) trace.BatchReader) Spec {
	s := Spec{Name: name, Suite: suite, Description: desc, stream: mk}
	s.Generate = func(seed uint64, n int) trace.Trace {
		t, _ := trace.CollectBatch(mk(context.Background(), seed, n), n)
		return t
	}
	return s
}

// Stream returns a single-use batched stream of exactly n accesses keyed
// by seed.  Calling it again with the same arguments replays the
// identical sequence; abandoning the stream early requires
// trace.CloseBatch to release the generator goroutine.
//
//lint:allow ctxflow compatibility shim for context-free callers; cancellation-aware callers use StreamCtx.
func (s Spec) Stream(seed uint64, n int) trace.BatchReader {
	return s.StreamCtx(context.Background(), seed, n)
}

// StreamCtx is Stream bound to a context: the generator pump stops (even
// blocked mid-send) when ctx is cancelled, and ReadBatch reports the
// context's error instead of a silently short stream.
func (s Spec) StreamCtx(ctx context.Context, seed uint64, n int) trace.BatchReader {
	if s.stream != nil {
		return s.stream(ctx, seed, n)
	}
	return newGenStream(ctx, seed, n, 0, s.run)
}

// StreamFunc returns a replayable stream factory keyed by seed — the
// handle the two-pass profiling schemes (Givargis, selector) consume.
//
//lint:allow ctxflow compatibility shim for context-free callers; cancellation-aware callers use StreamFuncCtx.
func (s Spec) StreamFunc(seed uint64, n int) trace.StreamFunc {
	return s.StreamFuncCtx(context.Background(), seed, n)
}

// StreamFuncCtx is StreamFunc with every produced reader bound to ctx.
func (s Spec) StreamFuncCtx(ctx context.Context, seed uint64, n int) trace.StreamFunc {
	return func() trace.BatchReader { return s.StreamCtx(ctx, seed, n) }
}

// registry holds all benchmark generators, keyed by name.
var registry = map[string]Spec{}

func register(name string, suite Suite, desc string, run func(*gen)) {
	if _, dup := registry[name]; dup {
		panic("workload: duplicate benchmark " + name)
	}
	s := Spec{Name: name, Suite: suite, Description: desc, Key: "kernel/" + name, run: run}
	s.Generate = func(seed uint64, n int) trace.Trace {
		return collectStream(seed, n, run)
	}
	registry[name] = s
}

func init() {
	register("adpcm", MiBench, "speech codec: streaming buffers + tiny quantiser tables", adpcmRun)
	register("basicmath", MiBench, "numeric kernels: small arrays with cache-span-aligned conflicts", basicMathRun)
	register("bitcount", MiBench, "bit counting: 256-byte LUT, tiny uniform working set", bitCountRun)
	register("crc", MiBench, "crc32: 1 KiB table + sequential buffer", crcRun)
	register("dijkstra", MiBench, "shortest path: adjacency-matrix rows + distance arrays", dijkstraRun)
	register("fft", MiBench, "radix-2 FFT: power-of-two butterfly strides (Figure 1)", fftRun)
	register("patricia", MiBench, "trie lookups: heap pointer chasing beyond cache capacity", patriciaRun)
	register("qsort", MiBench, "quicksort: sequential partition sweeps + deep stack", qSortRun)
	register("rijndael", MiBench, "AES: hot T-tables + streaming blocks", rijndaelRun)
	register("sha", MiBench, "SHA-1: message buffer and schedule one cache-span apart", shaRun)
	register("susan", MiBench, "image smoothing: 3-row scans, non-power-of-two pitch", susanRun)

	register("astar", SPEC2006, "A* grid search: 2-D walk + binary heap", astarRun)
	register("bzip2", SPEC2006, "compression: big-block streams + sort gathers", bzip2Run)
	register("calculix", SPEC2006, "FEM: column-major walks on power-of-two pitch", calculixRun)
	register("gromacs", SPEC2006, "MD: array sweeps + neighbour gathers", gromacsRun)
	register("hmmer", SPEC2006, "profile HMM: lockstep DP rows + hot tables", hmmerRun)
	register("libquantum", SPEC2006, "quantum sim: pure streaming sweeps", libquantumRun)
	register("mcf", SPEC2006, "network simplex: giant pointer chase", mcfRun)
	register("milc", SPEC2006, "lattice QCD: multiple power-of-two strides", milcRun)
	register("namd", SPEC2006, "MD: random pairwise force gathers", namdRun)
	register("sjeng", SPEC2006, "chess: huge transposition table + hot board", sjengRun)
}

// Lookup returns the benchmark with the given name.
func Lookup(name string) (Spec, error) {
	s, ok := registry[name]
	if !ok {
		return Spec{}, fmt.Errorf("workload: unknown benchmark %q", name)
	}
	return s, nil
}

// MustLookup is Lookup but panics on unknown names; for fixed experiment
// grids.
//
//lint:allow nopanic Must-prefixed variant documented to panic; callers with dynamic names use Lookup.
func MustLookup(name string) Spec {
	s, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return s
}

// Names returns all benchmark names, sorted, optionally filtered by suite
// (empty Suite means all).
func Names(suite Suite) []string {
	var out []string
	//lint:allow detrand the collected names are sorted immediately below, so iteration order cannot leak out.
	for name, s := range registry {
		if suite == "" || s.Suite == suite {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// MiBenchOrder lists the MiBench benchmarks in the paper's figure order.
var MiBenchOrder = []string{
	"adpcm", "basicmath", "bitcount", "crc", "dijkstra", "fft",
	"patricia", "qsort", "rijndael", "sha", "susan",
}

// SPECOrder lists the SPEC benchmarks in Figure 8's order.
var SPECOrder = []string{
	"astar", "bzip2", "calculix", "gromacs", "hmmer",
	"libquantum", "mcf", "milc", "namd", "sjeng",
}
