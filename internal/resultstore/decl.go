package resultstore

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"

	"cacheuniformity/internal/core"
	"cacheuniformity/internal/registry"
	"cacheuniformity/internal/workload"
)

// CellDecl is Cell over declarations: the scheme and benchmark are
// resolved through the registry (defaults filled, parameters validated
// with the offending field named on error), the cell is keyed by the
// canonical declarations, and only a cold, unled cell is simulated.
// Declared compositions that restate a default-roster cell — a bare
// scheme name, or a kind whose parameters spell out the defaults — hit
// the same entries as the name-based paths.
func (s *Store) CellDecl(ctx context.Context, cfg core.Config, schemeDecl, benchDecl registry.Decl) (core.Result, Origin, error) {
	r, err := Resolve(schemeDecl, benchDecl)
	if err != nil {
		return core.Result{}, "", err
	}
	key, err := CellKeyCanonical(cfg, r.SchemeJSON, r.BenchJSON, s.version)
	if err != nil {
		return core.Result{}, "", err
	}
	c, err := s.CellResolved(ctx, cfg, r.Scheme, r.Spec, key)
	return c.Result, c.Origin, err
}

// CellResolved is CellDecl for a caller that has already resolved both
// declarations (Resolve) and derived key from them with
// CellKeyCanonical under this store's Version — the server does both
// once per request.  The contract is CellDecl's; the Served value also
// carries the result's reply rendering.
func (s *Store) CellResolved(ctx context.Context, cfg core.Config, scheme core.Scheme, spec workload.Spec, key string) (Served, error) {
	cfg.Memo = nil
	if s.traces != nil {
		cfg.Traces = s
	}
	for {
		if c, ok := s.lookup(key); ok {
			return c, nil
		}

		fl, leader := s.join(key)
		if leader {
			if c, ok := s.recheck(key, fl); ok {
				return c, nil
			}
			res, _ := core.RunOneOf(ctx, cfg, scheme, spec)
			s.finish(key, fl, cfg, res)
			return Served{Result: res, Origin: OriginComputed, Rendering: fl.render}, res.Err
		}

		s.inflightWaits.Add(1)
		select {
		case <-fl.done:
			if fl.res.Err == nil || ctx.Err() != nil {
				return Served{Result: fl.res, Origin: OriginInflight, Rendering: fl.render}, fl.res.Err
			}
			// The leader failed (its cancellation, an injected fault) but
			// this request is still live; its outcome must match what a
			// direct run would produce, so go around and recompute.
		case <-ctx.Done():
			res := core.Result{Benchmark: spec.Name, Scheme: scheme.Name, Err: ctx.Err()}
			return Served{Result: res}, ctx.Err()
		}
	}
}

// GridDecls is Grid over declarations, following the same contract:
// every requested cell is present in the returned map (keyed by resolved
// benchmark and scheme names), cached cells are served from the tiers,
// in-flight cells are joined, and the remainder is grouped per benchmark
// so the generate-once engine shares each benchmark's stream and
// indexing profile across that benchmark's missing schemes.  Two
// declarations may share a name only when they are semantically
// identical — a name reused for different parameters would make the
// result map ambiguous and is rejected up front.
func (s *Store) GridDecls(ctx context.Context, cfg core.Config, schemeDecls, benchDecls []registry.Decl) (map[string]map[string]core.Result, error) {
	cfg.Memo = nil
	if s.traces != nil {
		cfg.Traces = s
	}
	schemes := make([]core.Scheme, len(schemeDecls))
	schemeJSON := make([][]byte, len(schemeDecls))
	for i, d := range schemeDecls {
		sc, j, err := resolveScheme(d)
		if err != nil {
			return nil, fmt.Errorf("schemes[%d]: %w", i, err)
		}
		schemes[i], schemeJSON[i] = sc, j
	}
	specs := make([]workload.Spec, len(benchDecls))
	benchJSON := make([][]byte, len(benchDecls))
	for i, d := range benchDecls {
		spec, _, j, err := resolveBench(d)
		if err != nil {
			return nil, fmt.Errorf("benchmarks[%d]: %w", i, err)
		}
		specs[i], benchJSON[i] = spec, j
	}
	if err := rejectAmbiguousNames("schemes", schemeNamesOf(schemes), schemeJSON); err != nil {
		return nil, err
	}
	if err := rejectAmbiguousNames("benchmarks", specNamesOf(specs), benchJSON); err != nil {
		return nil, err
	}

	par := cfg.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}

	type lead struct {
		scheme core.Scheme
		key    string
		fl     *flight
	}
	type wait struct {
		scheme core.Scheme
		spec   workload.Spec
		key    string
		fl     *flight
	}
	out := make(map[string]map[string]core.Result, len(specs))
	var waits []wait
	benchLeads := make(map[string][]lead, len(specs))
	benchSpecs := make(map[string]workload.Spec, len(specs))
	var benchOrder []string // iteration stays in benchDecls order

	for bi, spec := range specs {
		b := spec.Name
		row := out[b]
		if row == nil {
			row = make(map[string]core.Result, len(schemes))
			out[b] = row
		}
		for si, sc := range schemes {
			key, err := CellKeyCanonical(cfg, schemeJSON[si], benchJSON[bi], s.version)
			if err != nil {
				return nil, err
			}
			if c, ok := s.lookup(key); ok {
				row[sc.Name] = c.Result
				continue
			}
			fl, leader := s.join(key)
			if !leader {
				waits = append(waits, wait{scheme: sc, spec: spec, key: key, fl: fl})
				continue
			}
			if c, ok := s.recheck(key, fl); ok {
				row[sc.Name] = c.Result
				continue
			}
			if len(benchLeads[b]) == 0 {
				benchOrder = append(benchOrder, b)
				benchSpecs[b] = spec
			}
			benchLeads[b] = append(benchLeads[b], lead{scheme: sc, key: key, fl: fl})
		}
	}

	// Compute the led cells, one engine call per benchmark.  Every flight
	// this request leads is finished on every path — success, engine
	// shortfall, or cancellation while queued — so no waiter can hang.
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for _, b := range benchOrder {
		wg.Add(1)
		go func(bench workload.Spec, leads []lead) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				for _, l := range leads {
					s.finish(l.key, l.fl, cfg, core.Result{Benchmark: bench.Name, Scheme: l.scheme.Name, Err: ctx.Err()})
				}
				return
			}
			defer func() { <-sem }()

			leadSchemes := make([]core.Scheme, len(leads))
			for i, l := range leads {
				leadSchemes[i] = l.scheme
			}
			// Benchmark-level concurrency lives at this layer; the inner
			// engine call sees a single benchmark, so give it one worker.
			runCfg := cfg
			runCfg.Parallelism = 1
			sub, _ := core.GridOf(ctx, runCfg, leadSchemes, []workload.Spec{bench})
			row := sub[bench.Name]
			for _, l := range leads {
				res, ok := row[l.scheme.Name]
				if !ok {
					err := ctx.Err()
					if err == nil {
						err = fmt.Errorf("resultstore: engine returned no cell for %s/%s", l.scheme.Name, bench.Name)
					}
					res = core.Result{Benchmark: bench.Name, Scheme: l.scheme.Name, Err: err}
				}
				s.finish(l.key, l.fl, cfg, res)
			}
		}(benchSpecs[b], benchLeads[b])
	}
	wg.Wait()

	for _, b := range benchOrder {
		for _, l := range benchLeads[b] {
			out[b][l.scheme.Name] = l.fl.res
		}
	}

	// Join cells led by concurrent requests.  A foreign failure is not
	// this request's failure: if the flight resolves to an error while
	// this context is still live, recompute through CellResolved.
	for _, w := range waits {
		s.inflightWaits.Add(1)
		select {
		case <-w.fl.done:
			res := w.fl.res
			if res.Err != nil && ctx.Err() == nil {
				c, _ := s.CellResolved(ctx, cfg, w.scheme, w.spec, w.key)
				res = c.Result
			}
			out[w.spec.Name][w.scheme.Name] = res
		case <-ctx.Done():
			out[w.spec.Name][w.scheme.Name] = core.Result{Benchmark: w.spec.Name, Scheme: w.scheme.Name, Err: ctx.Err()}
		}
	}
	return out, ctx.Err()
}

// rejectAmbiguousNames errors when two declarations resolve to the same
// name but different canonical forms (given as their canonical JSON).
// Exact restatements are allowed — they collapse onto one cell via the
// singleflight layer.
func rejectAmbiguousNames(field string, names []string, canon [][]byte) error {
	seen := make(map[string]int, len(names))
	for i, n := range names {
		j, dup := seen[n]
		if !dup {
			seen[n] = i
			continue
		}
		if !bytes.Equal(canon[i], canon[j]) {
			return fmt.Errorf("%s[%d]: name %q already declared with different parameters at %s[%d]", field, i, n, field, j)
		}
	}
	return nil
}

func schemeNamesOf(schemes []core.Scheme) []string {
	out := make([]string, len(schemes))
	for i, s := range schemes {
		out[i] = s.Name
	}
	return out
}

func specNamesOf(specs []workload.Spec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}
