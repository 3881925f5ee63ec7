package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"

	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/indexing"
	"cacheuniformity/internal/stats"
	"cacheuniformity/internal/trace"
	"cacheuniformity/internal/workload"
)

// Result is one (benchmark, scheme) cell of an evaluation grid.
type Result struct {
	Benchmark string
	Scheme    string
	Counters  cache.Counters
	// MissRate is Counters.MissRate(), cached for convenience.
	MissRate float64
	// AMAT uses the scheme's own formula with Config.MissPenalty.
	AMAT float64
	// AccessMoments and MissMoments summarise the per-set distributions
	// (misses drive the paper's Figures 9-12).
	AccessMoments stats.Moments
	MissMoments   stats.Moments
	// Classification is Zhang's FHS/FMS/LAS breakdown.
	Classification stats.SetClassification
	// PerSet retains the raw distribution for custom analyses.
	PerSet cache.PerSet
	// Err reports a scheme that could not run (kept so a grid never
	// silently drops a cell).  It carries a *PanicError when the scheme
	// panicked, the context's error when the run was cancelled before or
	// during this cell, or the build/replay error otherwise.
	Err error
}

// RunOne evaluates a single scheme on a single benchmark stream.  A
// Config.Memo intercepts the call after name validation and may serve the
// cell from its store instead of simulating.
func RunOne(ctx context.Context, cfg Config, schemeName, benchName string) (Result, error) {
	cfg = cfg.normalized()
	scheme, err := SchemeByName(schemeName)
	if err != nil {
		return Result{}, err
	}
	bench, err := workload.Lookup(benchName)
	if err != nil {
		return Result{}, err
	}
	if m := cfg.Memo; m != nil {
		cfg.Memo = nil
		return m.MemoCell(ctx, cfg, schemeName, benchName)
	}
	sf, _ := streamFor(ctx, cfg, bench)
	res := runCell(ctx, cfg, scheme, benchName, sf, nil)
	return res, res.Err
}

// RunOneOf is RunOne over an already-resolved scheme and benchmark —
// the single-cell entry point for declared compositions (roster files,
// simd request bodies) that are not in the default roster.  It never
// consults Config.Memo; memoising callers key the cell themselves from
// the declarations before computing through here.
func RunOneOf(ctx context.Context, cfg Config, scheme Scheme, bench workload.Spec) (Result, error) {
	cfg = cfg.normalized()
	sf, _ := streamFor(ctx, cfg, bench)
	res := runCell(ctx, cfg, scheme, bench.Name, sf, nil)
	return res, res.Err
}

// streamFor resolves a benchmark's replay source: the compiled trace from
// cfg.Traces when one is available, the generator pump otherwise.  The
// fallback is silent by contract — a trace source only changes how fast a
// result is computed, never whether or what — so source errors (including
// cancellation, which the generator path re-reports immediately) degrade
// to the generator.  Benchmarks without a trace-cache identity
// (Spec.Key == "", the fault-injection seam) never consult the source.
func streamFor(ctx context.Context, cfg Config, bench workload.Spec) (trace.StreamFunc, *trace.Compiled) {
	if cfg.Traces != nil && bench.Key != "" {
		if ct, err := cfg.Traces.CompiledTrace(ctx, cfg, bench); err == nil && ct != nil {
			return trace.WithContextFunc(ctx, ct.Stream()), ct
		}
	}
	return bench.StreamFuncCtx(ctx, cfg.Seed, cfg.TraceLength), nil
}

// runCell replays one workload stream through one scheme.  Profile-driven
// schemes consume one stream from sf to build their index function, then
// replay a second, identical stream — the two-pass protocol that keeps
// peak memory at O(batch) instead of O(trace).  buf is the reusable replay
// buffer (nil allocates one).  A panic anywhere in the build or replay is
// recovered into the cell's Err; cancellation of ctx stops the replay
// within one batch and records the context's error.
func runCell(ctx context.Context, cfg Config, scheme Scheme, benchName string, sf trace.StreamFunc, buf []trace.Access) (res Result) {
	res = Result{Benchmark: benchName, Scheme: scheme.Name}
	// Track every reader this cell opens: a panic unwinds past the replay
	// loop's own cleanup, and an abandoned reader would leave its
	// generator pump blocked mid-send forever.  The recovery defer
	// releases whatever was in flight (CloseBatch is idempotent, so
	// already-finished readers are unaffected).
	var open []trace.BatchReader
	defer func() {
		if r := recover(); r != nil {
			for _, or := range open {
				trace.CloseBatch(or)
			}
			res.Err = &PanicError{
				Op:    fmt.Sprintf("cell %s/%s", benchName, scheme.Name),
				Value: r,
				Stack: debug.Stack(),
			}
		}
	}()
	if err := ctx.Err(); err != nil {
		res.Err = err
		return res
	}
	base := trace.WithContextFunc(ctx, sf)
	sf = func() trace.BatchReader {
		r := base()
		open = append(open, r)
		return r
	}
	model, err := scheme.Build(cfg.Layout, sf)
	if err != nil {
		res.Err = fmt.Errorf("core: build %s: %w", scheme.Name, err)
		return res
	}
	res.Counters, err = cache.RunBatched(model, sf(), buf)
	if err != nil {
		res.Err = fmt.Errorf("core: replay %s: %w", scheme.Name, err)
		return res
	}
	finishCell(&res, cfg, scheme, model)
	return res
}

// finishCell derives the cell's metrics from a fully-replayed model; the
// single-cell entry points and the fan-out grid share it so their results
// are computed identically.
func finishCell(res *Result, cfg Config, scheme Scheme, model cache.Model) {
	res.Counters = model.Counters()
	res.MissRate = res.Counters.MissRate()
	res.AMAT = scheme.AMAT(res.Counters, cfg.MissPenalty)
	res.PerSet = model.PerSet()
	if m, err := stats.MomentsOfCounts(res.PerSet.Accesses); err == nil {
		res.AccessMoments = m
	}
	if m, err := stats.MomentsOfCounts(res.PerSet.Misses); err == nil {
		res.MissMoments = m
	}
	res.Classification = stats.ClassifySets(res.PerSet.Hits, res.PerSet.Misses, res.PerSet.Accesses)
}

// RunStream evaluates one scheme on a caller-supplied replayable stream:
// the bounded-memory entry point for workloads that are not registered
// benchmarks.
func RunStream(ctx context.Context, cfg Config, schemeName, label string, sf trace.StreamFunc) (Result, error) {
	cfg = cfg.normalized()
	scheme, err := SchemeByName(schemeName)
	if err != nil {
		return Result{}, err
	}
	res := runCell(ctx, cfg, scheme, label, sf, nil)
	return res, res.Err
}

// resolveGrid turns scheme and benchmark names into their definitions,
// erroring on any unknown name before work starts.
func resolveGrid(schemeNames, benchNames []string) ([]Scheme, []workload.Spec, error) {
	schemes := make([]Scheme, len(schemeNames))
	for i, n := range schemeNames {
		s, err := SchemeByName(n)
		if err != nil {
			return nil, nil, err
		}
		schemes[i] = s
	}
	benches := make([]workload.Spec, len(benchNames))
	for i, n := range benchNames {
		b, err := workload.Lookup(n)
		if err != nil {
			return nil, nil, err
		}
		benches[i] = b
	}
	return schemes, benches, nil
}

// gridResults shapes the per-index result matrix into the public
// [benchmark][scheme] map.
func gridResults(schemes []Scheme, benches []workload.Spec, results [][]Result) map[string]map[string]Result {
	out := make(map[string]map[string]Result, len(benches))
	for bi, b := range benches {
		row := make(map[string]Result, len(schemes))
		for si, s := range schemes {
			row[s.Name] = results[bi][si]
		}
		out[b.Name] = row
	}
	return out
}

// Grid evaluates schemes × benchmarks and returns results keyed by
// [benchmark][scheme].  The engine is the generate-once fan-out: workers
// parallelise over benchmarks, and each benchmark's stream is generated
// exactly twice — one shared profiling pass feeding every profile-driven
// scheme (BuildFromProfile), one replay pass whose batches are broadcast
// to all scheme models at once — instead of once per (scheme, pass).
// Peak memory stays O(batch × Parallelism + profile); every cell is
// byte-identical to RunOne at every Parallelism value, because every model
// still sees the exact same access sequence in the same order.
//
// Degradation is per-cell: a scheme that errors or panics carries the
// failure in its Result.Err while every other cell completes.  Cancelling
// ctx stops all workers and generator pumps within one batch; the grid
// then returns the partial map — finished cells intact, unfinished cells
// carrying the context's error — together with ctx.Err().  The only other
// error is an unknown scheme or benchmark name, detected before any work
// starts.
func Grid(ctx context.Context, cfg Config, schemeNames, benchNames []string) (map[string]map[string]Result, error) {
	schemes, benches, err := resolveGrid(schemeNames, benchNames)
	if err != nil {
		return nil, err
	}
	if m := cfg.Memo; m != nil {
		cfg.Memo = nil
		return m.MemoGrid(ctx, cfg, schemeNames, benchNames)
	}
	return GridOf(ctx, cfg, schemes, benches)
}

// GridOf is Grid over already-resolved scheme and benchmark definitions.
// It accepts values that are not in the registries — the seam the
// fault-injection tests use to push erroring schemes and streams through
// the production engine — and follows Grid's partial-results contract.
func GridOf(ctx context.Context, cfg Config, schemes []Scheme, benches []workload.Spec) (map[string]map[string]Result, error) {
	cfg = cfg.normalized()
	results := make([][]Result, len(benches))
	benchIdx := make(chan int)
	var workers sync.WaitGroup
	n := cfg.Parallelism
	if n > len(benches) {
		n = len(benches)
	}
	// Spare workers become the intra-benchmark shard budget: with compiled
	// traces available, each of the n benchmark workers may fan its replay
	// pass out across shard more goroutines (segment-parallel for the
	// windowed-exact kinds, scheme-parallel for the rest), so a grid of few
	// benchmarks on many cores still saturates Parallelism.
	shard := 1
	if cfg.Traces != nil && n > 0 && cfg.Parallelism > n {
		shard = cfg.Parallelism / n
	}
	for w := 0; w < n; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			buf := make([]trace.Access, trace.DefaultBatch) // reused across this worker's benchmarks
			for bi := range benchIdx {
				results[bi] = runBenchSafely(ctx, cfg, schemes, benches[bi], buf, shard)
			}
		}()
	}
	// The producer must never block on a send once the run is cancelled:
	// workers drain the channel only while live, so an unconditional send
	// would deadlock against workers that already returned.
feed:
	for bi := range benches {
		select {
		case benchIdx <- bi:
		case <-ctx.Done():
			break feed
		}
	}
	close(benchIdx)
	workers.Wait()

	fillUnrun(ctx, schemes, benches, results)
	return gridResults(schemes, benches, results), ctx.Err()
}

// fillUnrun marks every cell a cancelled run never reached with the
// context's error, so partial grids are complete maps: a caller can
// distinguish "ran and failed", "ran and succeeded", and "never ran"
// without nil checks.
func fillUnrun(ctx context.Context, schemes []Scheme, benches []workload.Spec, results [][]Result) {
	err := ctx.Err()
	if err == nil {
		return
	}
	for bi := range results {
		if results[bi] == nil {
			results[bi] = make([]Result, len(schemes))
		}
		for si := range results[bi] {
			if results[bi][si].Benchmark == "" {
				results[bi][si] = Result{Benchmark: benches[bi].Name, Scheme: schemes[si].Name, Err: err}
			}
		}
	}
}

// runBenchSafely is the worker-level isolation wrapper around
// runBenchFanout: a panic that escapes the per-scheme recovery points
// (sink fan-out, metric finishing) poisons only this benchmark's row, not
// the whole grid.
func runBenchSafely(ctx context.Context, cfg Config, schemes []Scheme, bench workload.Spec, buf []trace.Access, shard int) (out []Result) {
	defer func() {
		if r := recover(); r != nil {
			perr := &PanicError{Op: "benchmark " + bench.Name, Value: r, Stack: debug.Stack()}
			out = make([]Result, len(schemes))
			for i, s := range schemes {
				out[i] = Result{Benchmark: bench.Name, Scheme: s.Name, Err: perr}
			}
		}
	}()
	return runBenchFanout(ctx, cfg, schemes, bench, buf, shard)
}

// buildModel invokes one scheme constructor with panic isolation: a
// constructor that blows up yields a *PanicError instead of unwinding the
// whole benchmark row.
func buildModel(op string, f func() (cache.Model, error)) (m cache.Model, err error) {
	defer func() {
		if r := recover(); r != nil {
			m, err = nil, &PanicError{Op: op, Value: r, Stack: debug.Stack()}
		}
	}()
	return f()
}

// runBenchFanout evaluates every scheme on one benchmark with the
// generate-once protocol: at most one shared profiling pass, then one
// replay pass broadcast to all models.  With a compiled trace and a shard
// budget > 1, the replay pass instead goes through the intra-benchmark
// planner (replayShardedFanout), which spreads it across shard workers
// with byte-identical results.  Failures degrade per scheme: a failed
// profiling pass poisons only the profile-driven schemes, a failed
// constructor or a panicking model poisons only its own cell, and the
// broadcast keeps replaying to every surviving sink.
func runBenchFanout(ctx context.Context, cfg Config, schemes []Scheme, bench workload.Spec, buf []trace.Access, shard int) []Result {
	sf, ct := streamFor(ctx, cfg, bench)
	out := make([]Result, len(schemes))
	for i, s := range schemes {
		out[i] = Result{Benchmark: bench.Name, Scheme: s.Name}
	}

	// Pass 1 (only when a scheme wants it): the shared profile.
	var prof *indexing.Profile
	var profErr error
	needProfile := false
	for _, s := range schemes {
		if s.BuildFromProfile != nil {
			needProfile = true
			break
		}
	}
	if needProfile {
		pr := indexing.NewProfiler(cfg.Layout, false)
		_, perrs, err := trace.Broadcast(ctx, sf(), buf, pr)
		switch {
		case err != nil:
			profErr = err
		case perrs[0] != nil:
			profErr = perrs[0]
		default:
			prof = pr.Profile()
		}
	}

	// Build every model.  Schemes without BuildFromProfile that profile via
	// Build's stream factory still work — they just run a private pass.
	models := make([]cache.Model, len(schemes))
	var sinks []trace.BatchSink
	var live []int // scheme index per sink
	for i, s := range schemes {
		var m cache.Model
		var err error
		if s.BuildFromProfile != nil {
			if profErr != nil {
				out[i].Err = fmt.Errorf("core: profile %s: %w", s.Name, profErr)
				continue
			}
			m, err = buildModel("build "+s.Name, func() (cache.Model, error) {
				return s.BuildFromProfile(cfg.Layout, prof)
			})
		} else {
			m, err = buildModel("build "+s.Name, func() (cache.Model, error) {
				return s.Build(cfg.Layout, sf)
			})
		}
		if err != nil {
			if _, isPanic := err.(*PanicError); !isPanic {
				err = fmt.Errorf("core: build %s: %w", s.Name, err)
			}
			out[i].Err = err
			continue
		}
		models[i] = m
		sinks = append(sinks, cache.NewSink(m))
		live = append(live, i)
	}

	// Pass 2: replay once, fanned out to every surviving model.  A sink
	// that errors or panics drops out of the broadcast alone (its cell
	// records the error); a stream error or cancellation poisons the cells
	// that were still consuming, preserving their partial counters.
	if len(sinks) > 0 {
		var serrs []error
		var err error
		if ct != nil && shard > 1 && ct.Segments() > 1 {
			serrs, err = replayShardedFanout(ctx, schemes, models, sinks, live, ct, shard)
		} else {
			_, serrs, err = trace.Broadcast(ctx, sf(), buf, sinks...)
		}
		finished := live[:0:0]
		for j, i := range live {
			switch {
			case serrs[j] != nil:
				out[i].Counters = models[i].Counters()
				out[i].Err = fmt.Errorf("core: replay %s: %w", schemes[i].Name, serrs[j])
			case err != nil:
				out[i].Counters = models[i].Counters()
				out[i].Err = fmt.Errorf("core: replay %s: %w", schemes[i].Name, err)
			default:
				finished = append(finished, i)
			}
		}
		live = finished
	}

	for _, i := range live {
		finishCell(&out[i], cfg, schemes[i], models[i])
	}
	return out
}

// MissReductionVsBaseline returns the paper's "% reduction in miss rate"
// for each scheme of a grid row (benchmark), against the named baseline
// scheme in the same row.
func MissReductionVsBaseline(row map[string]Result, baseline string) (map[string]float64, error) {
	base, ok := row[baseline]
	if !ok {
		return nil, fmt.Errorf("core: baseline %q missing from row", baseline)
	}
	out := make(map[string]float64, len(row))
	for name, r := range row {
		if name == baseline {
			continue
		}
		out[name] = stats.PercentReduction(base.MissRate, r.MissRate)
	}
	return out, nil
}

// AMATReductionVsBaseline returns "% reduction in AMAT" against the
// baseline scheme.
func AMATReductionVsBaseline(row map[string]Result, baseline string) (map[string]float64, error) {
	base, ok := row[baseline]
	if !ok {
		return nil, fmt.Errorf("core: baseline %q missing from row", baseline)
	}
	out := make(map[string]float64, len(row))
	for name, r := range row {
		if name == baseline {
			continue
		}
		out[name] = stats.PercentReduction(base.AMAT, r.AMAT)
	}
	return out, nil
}

// MomentChangeVsBaseline returns the "% increase in kurtosis/skewness of
// misses" metrics of Figures 9-12.  pick selects which moment.
func MomentChangeVsBaseline(row map[string]Result, baseline string, pick func(stats.Moments) float64) (map[string]float64, error) {
	base, ok := row[baseline]
	if !ok {
		return nil, fmt.Errorf("core: baseline %q missing from row", baseline)
	}
	out := make(map[string]float64, len(row))
	for name, r := range row {
		if name == baseline {
			continue
		}
		out[name] = stats.PercentChange(pick(base.MissMoments), pick(r.MissMoments))
	}
	return out, nil
}
