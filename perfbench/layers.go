package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/cluster"
	"cacheuniformity/internal/core"
	"cacheuniformity/internal/indexing"
	"cacheuniformity/internal/registry"
	"cacheuniformity/internal/report"
	"cacheuniformity/internal/resultstore"
	"cacheuniformity/internal/stats"
	"cacheuniformity/internal/trace"
	"cacheuniformity/internal/workload"
)

// The traced run.  It runs the ladder — a traced figs pass with its
// decomposed replay, a traced cell-hot fleet and a traced cell-churn
// fleet — so every per-layer metric is measured on every traced run; the
// named workload additionally runs untraced once, which gives
// trace_overhead_frac.  Spans are recorded around calls into each layer's
// public functions, from this package only, and written to
// .bench_build/spans/<workload>-seed<seed>.jsonl at the end.

func runTraced(ctx context.Context, o options) (*outcome, error) {
	rec := newRecorder()
	out := newOutcome()
	overhead, err := tracedFigs(ctx, o, rec, out, o.workload == "figs")
	if err != nil {
		return nil, err
	}
	for _, m := range []cellMix{hotMix, churnMix} {
		ov, err := tracedCells(ctx, o, m, rec, out, o.workload == m.name)
		if err != nil {
			return nil, err
		}
		if o.workload == m.name {
			overhead = ov
		}
	}
	if err := storeProbe(ctx, o, out); err != nil {
		return nil, err
	}
	out.set("trace_overhead_frac", overhead, "ratio")
	out.Correct = out.Failed == 0

	dir := filepath.Join(o.root, ".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := rec.write(path); err != nil {
		return nil, err
	}
	out.note("spans: %d written to %s", len(rec.snapshot()), path)
	return out, nil
}

// gridCall is one engine call a figure made, with the engine's answer.
type gridCall struct {
	cfg              core.Config
	schemes, benches []string
	single           bool
	res              map[string]map[string]core.Result
}

// recordingMemo records every grid and single-cell call the figures
// make, with a span per call, and passes it to the engines unchanged.
type recordingMemo struct {
	rec   *recorder
	fig   int
	mu    sync.Mutex
	calls []gridCall
}

func (m *recordingMemo) MemoGrid(ctx context.Context, cfg core.Config, schemes, benches []string) (map[string]map[string]core.Result, error) {
	id := m.rec.begin("core.grid", 0, int64(m.fig))
	res, err := core.Grid(ctx, cfg, schemes, benches)
	m.rec.end(id)
	m.mu.Lock()
	m.calls = append(m.calls, gridCall{cfg: cfg, schemes: schemes, benches: benches, res: res})
	m.mu.Unlock()
	return res, err
}

func (m *recordingMemo) MemoCell(ctx context.Context, cfg core.Config, scheme, bench string) (core.Result, error) {
	id := m.rec.begin("core.grid", 0, int64(m.fig))
	res, err := core.RunOne(ctx, cfg, scheme, bench)
	m.rec.end(id)
	m.mu.Lock()
	m.calls = append(m.calls, gridCall{cfg: cfg, schemes: []string{scheme}, benches: []string{bench}, single: true,
		res: map[string]map[string]core.Result{bench: {scheme: res}}})
	m.mu.Unlock()
	return res, err
}

// distinct drops repeated calls (Figures 4, 9 and 10 evaluate one grid).
func (m *recordingMemo) distinct() []gridCall {
	seen := map[string]bool{}
	var out []gridCall
	for _, c := range m.calls {
		k := fmt.Sprint(c.cfg.Seed, c.cfg.TraceLength, c.schemes, c.benches)
		if !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}

// layerClock accumulates time and accesses per layer.
type layerClock struct {
	ns  map[string]time.Duration
	acc map[string]int64
	us  map[string][]float64
}

func newLayerClock() *layerClock {
	return &layerClock{ns: map[string]time.Duration{}, acc: map[string]int64{}, us: map[string][]float64{}}
}

// time runs f inside a span named layer under parent and charges it n
// accesses.
func (c *layerClock) time(rec *recorder, layer string, parent int64, n int64, f func() error) error {
	id := rec.begin(layer, parent, 0)
	t := time.Now()
	err := f()
	d := time.Since(t)
	rec.end(id)
	c.ns[layer] += d
	c.acc[layer] += n
	c.us[layer] = append(c.us[layer], float64(d)/float64(time.Microsecond))
	return err
}

func (c *layerClock) perAccess(layer string) float64 {
	if c.acc[layer] == 0 {
		return 0
	}
	return float64(c.ns[layer]) / float64(c.acc[layer])
}

// tracedFigs runs the traced figs pass and its decomposed replay.
func tracedFigs(ctx context.Context, o options, rec *recorder, out *outcome, named bool) (float64, error) {
	cfg := figsConfig(o)
	var untraced time.Duration
	if named {
		p, err := runFigsPass(ctx, cfg, nil, nil)
		if err != nil {
			return 0, err
		}
		untraced = p.wall
	}
	memo := &recordingMemo{rec: rec}
	p, err := runFigsPass(ctx, cfg, memo, rec)
	if err != nil {
		return 0, err
	}
	for id, d := range p.perFig {
		out.set(figMetric(id), d.Seconds(), "s")
	}
	out.Attempted += int64(len(p.tables))

	clock := newLayerClock()
	calls := memo.distinct()
	root := rec.begin("core.replay", 0, 0)
	for _, call := range calls {
		if err = replayCall(ctx, call, rec, root, clock); err != nil {
			rec.end(root)
			return 0, err
		}
	}
	rec.end(root)
	// The same grids through the engine, serially and from cold traces,
	// are the denominator of core.overhead_frac.
	var serial time.Duration
	for _, call := range calls {
		c := call.cfg
		c.Parallelism = 1
		c.Traces = core.NewMemTraceCache(0)
		c.Memo = nil
		t := time.Now()
		if call.single {
			_, err = core.RunOne(ctx, c, call.schemes[0], call.benches[0])
		} else {
			_, err = core.Grid(ctx, c, call.schemes, call.benches)
		}
		serial += time.Since(t)
		if err != nil {
			return 0, err
		}
	}
	var layers time.Duration
	for name, ns := range selfByName(rec.snapshot()) {
		switch name {
		case "workload.gen", "trace.compile", "indexing.profile", "registry.build", "trace.broadcast", "stats.moments", "stats.classify":
			layers += time.Duration(ns)
		}
	}
	if err := accessPass(ctx, cfg, rec, clock); err != nil {
		return 0, err
	}

	out.set("workload.gen_ns_per_access", clock.perAccess("workload.gen"), "ns")
	out.set("trace.compile_ns_per_access", clock.perAccess("trace.compile"), "ns")
	out.set("trace.bytes_per_access", float64(clock.acc["trace.bytes"])/float64(clock.acc["trace.compile"]), "B")
	out.set("trace.decode_ns_per_access", clock.perAccess("probe.decode"), "ns")
	out.set("trace.broadcast_ns_per_access", clock.perAccess("probe.broadcast"), "ns")
	out.set("indexing.profile_ns_per_access", clock.perAccess("indexing.profile"), "ns")
	out.set("indexing.build_ms.givargis", median(clock.us["indexing.build.givargis"])/1000, "ms")
	out.set("indexing.build_ms.givargis_xor", median(clock.us["indexing.build.givargis_xor"])/1000, "ms")
	out.set("stats.moments_us", median(clock.us["stats.moments"]), "us")
	out.set("stats.classify_us", median(clock.us["stats.classify"]), "us")
	out.set("core.overhead_frac", 1-float64(layers)/float64(serial), "ratio")
	for _, k := range registry.SchemeKinds() {
		name := "access." + k.Kind
		if clock.acc[name] == 0 {
			return 0, fmt.Errorf("figs: the decomposed replay did not cover scheme kind %s", k.Kind)
		}
		out.set(name+".ns_per_access", clock.perAccess(name), "ns")
	}
	out.note("figs traced: %d figures in %.2fs, %d distinct engine calls replayed, serial engine %.2fs vs layer self time %.2fs",
		len(p.tables), p.wall.Seconds(), len(calls), serial.Seconds(), layers.Seconds())
	if !named {
		return 0, nil
	}
	return (p.wall.Seconds() - untraced.Seconds()) / untraced.Seconds(), nil
}

// replayCall replays one engine call through the public layer calls and
// asserts that every cell's counters, per-set distributions and
// statistics equal the engine's.
func replayCall(ctx context.Context, call gridCall, rec *recorder, root int64, clock *layerClock) error {
	cfg := call.cfg
	schemes := make([]registry.Scheme, len(call.schemes))
	needProfile := false
	for i, name := range call.schemes {
		s, err := core.SchemeByName(name)
		if err != nil {
			return err
		}
		schemes[i] = s
		needProfile = needProfile || s.BuildFromProfile != nil
	}
	buf := make([]trace.Access, trace.DefaultBatch)
	for _, b := range call.benches {
		spec, err := workload.Lookup(b)
		if err != nil {
			return err
		}
		bench := rec.begin("core.bench", root, 0)
		n := int64(cfg.TraceLength)
		var tr trace.Trace
		var ct *trace.Compiled
		err = errors.Join(
			clock.time(rec, "workload.gen", bench, n, func() (gerr error) {
				tr, gerr = trace.CollectBatch(spec.StreamCtx(ctx, cfg.Seed, cfg.TraceLength), 0)
				return gerr
			}),
			clock.time(rec, "trace.compile", bench, n, func() error {
				ct = trace.CompileTrace(tr, 0)
				return nil
			}))
		if err != nil {
			rec.end(bench)
			return err
		}
		clock.acc["trace.bytes"] += int64(ct.SizeBytes())
		err = clock.time(rec, "probe.decode", bench, n, func() error { return drain(ct.Reader(), buf) })
		if err == nil {
			err = replayBench(ctx, cfg, call, b, schemes, needProfile, ct, buf, rec, bench, clock)
		}
		rec.end(bench)
		if err != nil {
			return err
		}
	}
	return nil
}

// replayBench is the generate-once protocol for one benchmark, layer by
// layer: profile, build, broadcast replay, statistics.
func replayBench(ctx context.Context, cfg core.Config, call gridCall, b string, schemes []registry.Scheme, needProfile bool,
	ct *trace.Compiled, buf []trace.Access, rec *recorder, bench int64, clock *layerClock) error {
	n := int64(ct.Len())
	var prof *indexing.Profile
	if needProfile {
		err := clock.time(rec, "indexing.profile", bench, n, func() error {
			pr := indexing.NewProfiler(cfg.Layout, false)
			_, perrs, err := trace.Broadcast(ctx, ct.Reader(), buf, pr)
			prof = pr.Profile()
			return errors.Join(append(perrs, err)...)
		})
		if err != nil {
			return err
		}
		err = errors.Join(
			clock.time(rec, "indexing.build.givargis", bench, 0, func() error {
				_, gerr := indexing.NewGivargisFromProfile(prof, indexing.GivargisConfig{})
				return gerr
			}),
			clock.time(rec, "indexing.build.givargis_xor", bench, 0, func() error {
				_, gerr := indexing.NewGivargisXORFromProfile(prof, indexing.GivargisConfig{})
				return gerr
			}))
		if err != nil {
			return err
		}
	}
	models := make([]cache.Model, len(schemes))
	sinks := make([]trace.BatchSink, len(schemes))
	for i, s := range schemes {
		err := clock.time(rec, "registry.build", bench, 0, func() (err error) {
			if s.BuildFromProfile != nil {
				models[i], err = s.BuildFromProfile(cfg.Layout, prof)
			} else {
				models[i], err = s.Build(cfg.Layout, ct.Stream())
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("build %s: %w", s.Name, err)
		}
		sinks[i] = cache.NewSink(models[i])
	}
	err := clock.time(rec, "trace.broadcast", bench, n, func() error {
		_, serrs, err := trace.Broadcast(ctx, ct.Reader(), buf, sinks...)
		return errors.Join(append(serrs, err)...)
	})
	if err != nil {
		return err
	}
	noops := make([]trace.BatchSink, len(schemes))
	for i := range noops {
		noops[i] = trace.SinkFunc(func([]trace.Access) error { return nil })
	}
	if err := clock.time(rec, "probe.broadcast", bench, n, func() error {
		_, _, err := trace.Broadcast(ctx, ct.Reader(), buf, noops...)
		return err
	}); err != nil {
		return err
	}
	for i, s := range schemes {
		want := call.res[b][s.Name]
		per := models[i].PerSet()
		var am, mm stats.Moments
		var cls stats.SetClassification
		err := errors.Join(
			clock.time(rec, "stats.moments", bench, 0, func() (err error) {
				if am, err = stats.MomentsOfCounts(per.Accesses); err != nil {
					return err
				}
				mm, err = stats.MomentsOfCounts(per.Misses)
				return err
			}),
			clock.time(rec, "stats.classify", bench, 0, func() error {
				cls = stats.ClassifySets(per.Hits, per.Misses, per.Accesses)
				return nil
			}))
		if err != nil {
			return err
		}
		if want.Err != nil || models[i].Counters() != want.Counters || !reflect.DeepEqual(per, want.PerSet) ||
			am != want.AccessMoments || mm != want.MissMoments || cls != want.Classification {
			return fmt.Errorf("figs: decomposed replay of %s/%s (seed %d) differs from the engine", b, s.Name, cfg.Seed)
		}
	}
	return nil
}

// drain reads r to the end, which times decoding alone.
func drain(r trace.BatchReader, buf []trace.Access) error {
	for {
		n, err := r.ReadBatch(buf)
		if n == 0 {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
	}
}

// accessKinds are the figure traces every scheme kind replays.
var accessKinds = []string{"fft", "sha", "crc", "dijkstra"}

// accessPass builds every registered scheme kind with default parameters
// and times cache.RunBatched over decoded figure traces.
func accessPass(ctx context.Context, cfg core.Config, rec *recorder, clock *layerClock) error {
	buf := make([]trace.Access, trace.DefaultBatch)
	traces := make([]trace.Trace, len(accessKinds))
	for i, b := range accessKinds {
		spec, err := workload.Lookup(b)
		if err != nil {
			return err
		}
		if traces[i], err = trace.CollectBatch(spec.StreamCtx(ctx, cfg.Seed, cfg.TraceLength), 0); err != nil {
			return err
		}
	}
	root := rec.begin("access.pass", 0, 0)
	defer rec.end(root)
	for _, k := range registry.SchemeKinds() {
		s, err := registry.ResolveScheme(registry.Decl{Kind: k.Kind})
		if err != nil {
			return err
		}
		for _, tr := range traces {
			m, err := s.Build(cfg.Layout, tr.Stream())
			if err != nil {
				return fmt.Errorf("build %s: %w", k.Kind, err)
			}
			var ctr cache.Counters
			if err := clock.time(rec, "access."+k.Kind, root, int64(len(tr)), func() (err error) {
				ctr, err = cache.RunBatched(m, tr.NewBatchReader(), buf)
				return err
			}); err != nil {
				return err
			}
			if ctr.Accesses != uint64(len(tr)) {
				return fmt.Errorf("access %s: replayed %d of %d accesses", k.Kind, ctr.Accesses, len(tr))
			}
		}
	}
	return ctx.Err()
}

// tap is the timing wrapper around a node's handler.  It records the
// handler span (a child of the load generator's request span) and keeps
// handler and forwarded-request durations, response sizes and sheds.
type tap struct {
	next http.Handler
	rec  *recorder
	on   atomic.Bool

	mu sync.Mutex
	tapCounts
}

// tapCounts is what a tap has recorded.
type tapCounts struct {
	handler   []time.Duration
	forwarded []time.Duration
	bytes     int64
	responses int64
	sheds     int64
}

// snapshot copies what the tap has recorded so far.
func (t *tap) snapshot() tapCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.tapCounts
	c.handler = append([]time.Duration(nil), c.handler...)
	c.forwarded = append([]time.Duration(nil), c.forwarded...)
	return c
}

type countingWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

func (t *tap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.on.Load() || r.URL.Path != "/v1/cell" || r.Method != http.MethodPost {
		t.next.ServeHTTP(w, r)
		return
	}
	forwarded := r.Header.Get(cluster.ForwardHeader) != ""
	name := "server.handler"
	if forwarded {
		name = "cluster.forward"
	}
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	id := t.rec.begin(name, parent, 0)
	cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	t.next.ServeHTTP(cw, r)
	d := time.Since(start)
	t.rec.end(id)
	t.mu.Lock()
	defer t.mu.Unlock()
	if forwarded {
		t.forwarded = append(t.forwarded, d)
	} else {
		t.handler = append(t.handler, d)
		t.bytes += cw.n
		t.responses++
	}
	if cw.status == http.StatusServiceUnavailable {
		t.sheds++
	}
}

// inProcess times, on sampled requests, the in-process calls the server
// makes per request: registry resolution, key derivation and the
// canonical encoding of the response.
type inProcess struct {
	mu           sync.Mutex
	resolve, key []float64
	canonical    []float64
	length       int
	rec          *recorder
}

func (ip *inProcess) sample(spec cellSpec, body []byte, root int64) {
	sd, bd := registry.Decl{Name: spec.scheme}, registry.Decl{Name: spec.bench}
	t := time.Now()
	id := ip.rec.begin("registry.resolve", root, 0)
	_, err1 := registry.ResolveScheme(sd)
	_, _, err2 := registry.ResolveWorkload(bd)
	ip.rec.end(id)
	resolve := time.Since(t)
	t = time.Now()
	id = ip.rec.begin("resultstore.key", root, 0)
	_, err3 := resultstore.CellKeyDecl(spec.simConfig(ip.length), sd, bd, resultstore.CodeVersion)
	ip.rec.end(id)
	key := time.Since(t)
	t = time.Now()
	id = ip.rec.begin("report.canonical_json", root, 0)
	_, err4 := report.CanonicalJSONIndent(json.RawMessage(body), "  ")
	ip.rec.end(id)
	canonical := time.Since(t)
	if errors.Join(err1, err2, err3, err4) != nil {
		return
	}
	ip.mu.Lock()
	defer ip.mu.Unlock()
	ip.resolve = append(ip.resolve, float64(resolve)/float64(time.Microsecond))
	ip.key = append(ip.key, float64(key)/float64(time.Microsecond))
	ip.canonical = append(ip.canonical, float64(canonical)/float64(time.Microsecond))
}

// tracedCells runs one serving mix traced: a traced closed loop with
// in-process sampling, then a traced open loop for generator lateness.
// For the named workload an untraced closed loop of the same length runs
// first, for trace_overhead_frac.
func tracedCells(ctx context.Context, o options, m cellMix, rec *recorder, out *outcome, named bool) (float64, error) {
	// Four seconds of traced traffic at the published scale; smaller
	// working sets get proportionally shorter phases, so the churn mix
	// stays mostly new cells.
	seconds := max(1, 4*o.scale)
	r, err := setUp(ctx, o, m, rec)
	if err != nil {
		return 0, err
	}
	defer r.fleet.stop()
	clients := newClients(nproc())
	defer closeClients(clients)
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	target := r.fleet.nodes[0].url
	half := time.Duration(seconds / 2 * float64(time.Second))

	r.warm(ctx, clients)
	var untracedRPS float64
	if named {
		p := &phase{r: r, target: target, sched: m.schedule(o.seed, 7, len(r.cells), 1<<18)}
		u := p.closedLoop(ctx, clients[:1], half)
		untracedRPS = float64(u.ok) / u.elapsed.Seconds()
	}
	for _, n := range r.fleet.nodes {
		n.tap.on.Store(true)
	}
	before, err := r.fleet.snapshot(ctx, hc)
	if err != nil {
		return 0, err
	}
	ip := &inProcess{length: r.length, rec: rec}
	// A schedule of its own: replaying the untraced phase's draw would
	// turn its freshly computed cells into hits.
	p := &phase{r: r, target: target, sched: m.schedule(o.seed, 9, len(r.cells), 1<<18), rec: rec, sample: ip.sample}
	// One client, as in the timed runs.
	closed := p.closedLoop(ctx, clients[:1], half)
	after, err := r.fleet.snapshot(ctx, hc)
	if err != nil {
		return 0, err
	}
	openP := &phase{r: r, target: target, sched: m.schedule(o.seed, 8, len(r.cells), int(m.rate*seconds/2)), rec: rec, reqBase: 1 << 40}
	open := openP.openLoop(ctx, clients, m.rate, len(openP.sched))
	wrong, cold, err := r.verify(ctx, append(closed.checks, open.checks...))
	if err != nil {
		return 0, err
	}
	out.Attempted += closed.attempted + open.attempted
	out.Failed += closed.attempted - closed.ok + open.attempted - open.ok + int64(wrong)
	d := delta(before, after, closed.attempted)
	if err := m.guard(d, o.scale); err != nil {
		return 0, err
	}
	rps := float64(closed.ok) / closed.elapsed.Seconds()
	var overhead float64
	if named {
		overhead = (untracedRPS - rps) / untracedRPS
	}
	late := quantile(durations(open.late, time.Millisecond), 0.99)
	if m.name == hotMix.name || named {
		out.set("loadgen.late_p99_ms", late, "ms")
	}
	t0 := r.fleet.nodes[0].tap.snapshot()
	switch m.name {
	case hotMix.name:
		handler := durations(t0.handler, time.Microsecond)
		mem, disk, _ := d.shares()
		hit, err := peekCosts(ctx, r)
		if err != nil {
			return 0, err
		}
		out.set("registry.resolve_us", median(ip.resolve), "us")
		out.set("resultstore.key_us", median(ip.key), "us")
		out.set("report.canonical_json_us", median(ip.canonical), "us")
		out.set("server.handler_us.p50", quantile(handler, 0.5), "us")
		out.set("server.handler_us.p99", quantile(handler, 0.99), "us")
		out.set("server.edge_us", quantile(handler, 0.5)-median(ip.resolve)-median(ip.key)-(mem*hit.memory+disk*hit.disk), "us")
		out.set("server.response_bytes", float64(t0.bytes)/float64(max(t0.responses, 1)), "B")
		out.set("server.sheds", float64(t0.sheds), "count")
		out.set("resultstore.memory_hits", float64(d.memHits), "count")
		out.set("resultstore.disk_hits", float64(d.diskHits), "count")
		out.set("resultstore.misses", float64(d.misses), "count")
		out.set("resultstore.hit_ratio", mem+disk, "ratio")
		out.set("resultstore.memory_hit_us", hit.memory, "us")
		out.set("resultstore.disk_hit_us", hit.disk, "us")
		if err := buildProbe(ctx, r, out); err != nil {
			return 0, err
		}
	case churnMix.name:
		fwd := durations(r.fleet.nodes[1].tap.snapshot().forwarded, time.Millisecond)
		out.set("cluster.forward_ms.p50", quantile(fwd, 0.5), "ms")
		out.set("cluster.forward_ms.p99", quantile(fwd, 0.99), "ms")
		out.set("cluster.forwards", float64(d.forwards), "count")
		out.set("cluster.fallbacks", float64(d.fallbacks), "count")
		out.set("cluster.hedges", float64(d.hedges), "count")
		out.set("cluster.peer_fills", float64(d.fills), "count")
		out.set("resultstore.gc_evictions", float64(d.gcEvictions), "count")
		out.set("resultstore.disk_lock_waits", float64(d.waits), "count")
		out.set("resultstore.bytes_used", float64(r.fleet.nodes[0].store.Stats().BytesUsed), "B")
		out.set("resultstore.cold_cell_ms", median(durations(cold, time.Millisecond)), "ms")
	}
	out.note("%s traced: %.0f req/s closed, %d handler spans, late p99 %.3f ms, wrong_total=%d",
		m.name, rps, len(t0.handler), late, wrong)
	return overhead, nil
}

// hitCosts are the in-process Store.Peek costs of each tier.
type hitCosts struct{ memory, disk float64 }

// peekCosts opens a second store over the served store's directory and
// times Peek on cells it holds: the first Peek of a key is a disk hit,
// the second a memory hit.
func peekCosts(ctx context.Context, r *cellRun) (hitCosts, error) {
	store, err := resultstore.Open(resultstore.Options{Dir: r.fleet.nodes[0].store.Dir(), MemoryEntries: 256})
	if err != nil {
		return hitCosts{}, err
	}
	var mem, disk []float64
	for i := 0; i < len(r.cells) && i < 256 && ctx.Err() == nil; i++ {
		key := r.refs[i].key
		for pass := 0; pass < 2; pass++ {
			t := time.Now()
			_, origin, ok := store.Peek(key)
			us := float64(time.Since(t)) / float64(time.Microsecond)
			switch {
			case !ok:
				return hitCosts{}, fmt.Errorf("peek: cell %d missing from the populated store", i)
			case origin == resultstore.OriginDisk:
				disk = append(disk, us)
			case origin == resultstore.OriginMemory:
				mem = append(mem, us)
			}
		}
	}
	return hitCosts{memory: median(mem), disk: median(disk)}, ctx.Err()
}

// buildProbe resolves and builds every registered scheme kind over a
// cell-length trace, as every cold cell does.
func buildProbe(ctx context.Context, r *cellRun, out *outcome) error {
	spec, err := workload.Lookup("fft")
	if err != nil {
		return err
	}
	c := r.cells[0]
	cfg := c.simConfig(r.length)
	tr, err := trace.CollectBatch(spec.StreamCtx(ctx, cfg.Seed, cfg.TraceLength), 0)
	if err != nil {
		return err
	}
	for _, k := range registry.SchemeKinds() {
		s, err := registry.ResolveScheme(registry.Decl{Kind: k.Kind})
		if err != nil {
			return err
		}
		var us []float64
		for rep := 0; rep < 5; rep++ {
			t := time.Now()
			if _, err := s.Build(cfg.Layout, tr.Stream()); err != nil {
				return fmt.Errorf("build %s: %w", k.Kind, err)
			}
			us = append(us, float64(time.Since(t))/float64(time.Microsecond))
		}
		out.set("registry.build_us."+k.Kind, median(us), "us")
	}
	return nil
}

// storeProbe times Store.Fill and Store.GC on a private on-disk store
// filled with freshly computed cells.
func storeProbe(ctx context.Context, o options, out *outcome) error {
	cells, err := churnMix.buildCells(o.seed+1_000, o.scale)
	if err != nil {
		return err
	}
	n := min(64, len(cells))
	length := scaled(churnMix.length, o.scale, 2000)
	mem, err := resultstore.Open(resultstore.Options{MemoryEntries: -1})
	if err != nil {
		return err
	}
	disk, err := resultstore.Open(resultstore.Options{Dir: filepath.Join(o.work, "probe"), MemoryEntries: -1})
	if err != nil {
		return err
	}
	var fill []float64
	for i := 0; i < n; i++ {
		c := cells[i]
		cfg := c.simConfig(length)
		sd, bd := registry.Decl{Name: c.scheme}, registry.Decl{Name: c.bench}
		res, _, err := mem.CellDecl(ctx, cfg, sd, bd)
		if err != nil {
			return err
		}
		key, err := resultstore.CellKeyDecl(cfg, sd, bd, disk.Version())
		if err != nil {
			return err
		}
		t := time.Now()
		if err := disk.Fill(key, cfg, res); err != nil {
			return err
		}
		fill = append(fill, float64(time.Since(t))/float64(time.Microsecond))
	}
	t := time.Now()
	rep := disk.GC(disk.Stats().BytesUsed / 2)
	gc := time.Since(t)
	if rep.Evicted == 0 {
		return errors.New("store probe: GC evicted nothing")
	}
	out.set("resultstore.fill_us", median(fill), "us")
	out.set("resultstore.gc_ms", float64(gc)/float64(time.Millisecond), "ms")
	return nil
}
