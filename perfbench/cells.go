package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cacheuniformity/internal/cluster"
	"cacheuniformity/internal/core"
	"cacheuniformity/internal/registry"
	"cacheuniformity/internal/report"
	"cacheuniformity/internal/resultstore"
	"cacheuniformity/internal/rng"
	"cacheuniformity/internal/server"
)

// cellMix describes a serving workload: the working set, its popularity,
// the fleet that serves it and the open-loop rate.
type cellMix struct {
	name     string
	schemes  []string
	benches  []string
	cells    int
	skew     float64
	length   int
	seedBase uint64 // added to seed·1e6 so the two mixes never share cells
	// nodes is the fleet size; every request goes to the first node.
	nodes int
	// memEntries bounds each node's memory tier (0 = the store default).
	memEntries int
	// quota bounds each node's disk tier (0 = unbounded).
	quota         int64
	compileTraces bool
	// prepopulate fills the first node's store with the whole working set
	// before set-up is timed.
	prepopulate bool
	// adminEvery sends one admin operation (alternating DELETE /v1/cell
	// and POST /v1/gc) after every adminEvery-th request; 0 = none.
	adminEvery int
	// warmup is the untimed closed loop that runs after set-up, so the
	// timed phases see the tiers in their steady state.
	warmup time.Duration
	// rate is the open-loop arrival rate in requests per second, a third
	// to a half of the closed-loop capacity on the reference machine.
	rate float64
	// lateLimit is the open-loop validity limit: a run whose generator
	// woke later than this at p99 is rerun, not reported.
	lateLimit time.Duration
	// checkEvery samples one timed response in checkEvery for the
	// correctness check.
	checkEvery int
	// guard fails a run whose traffic no longer has the character the
	// workload was chosen for.  Shares that depend on the working set's
	// size are checked at the published scale only.
	guard func(d fleetDelta, scale float64) error
}

var hotMix = cellMix{
	name:        "cell-hot",
	schemes:     []string{"baseline", "xor", "column_associative", "adaptive", "b_cache"},
	benches:     []string{"fft", "sha", "dijkstra", "crc"},
	cells:       1024,
	skew:        1.1,
	length:      20_000,
	seedBase:    1,
	nodes:       1,
	memEntries:  256,
	prepopulate: true,
	warmup:      2 * time.Second,
	rate:        900,
	lateLimit:   5 * time.Millisecond,
	checkEvery:  16,
	guard: func(d fleetDelta, scale float64) error {
		mem, disk, miss := d.shares()
		if mem < 0.5 || mem > 0.97 || disk < 0.02 || disk > 0.5 || miss > 0.01 {
			return fmt.Errorf("cell-hot: store shares memory %.3f, disk %.3f, miss %.3f outside memory [0.50,0.97], disk [0.02,0.50], miss <= 0.01",
				mem, disk, miss)
		}
		return nil
	},
}

var churnMix = cellMix{
	name:          "cell-churn",
	schemes:       []string{"baseline", "xor", "prime_modulo", "column_associative", "adaptive", "b_cache"},
	benches:       []string{"fft", "sha", "dijkstra", "crc", "qsort"},
	cells:         4000,
	skew:          0.6,
	length:        20_000,
	seedBase:      500_001,
	nodes:         2,
	memEntries:    256,
	quota:         2 << 20,
	compileTraces: true,
	adminEvery:    50,
	warmup:        10 * time.Second,
	rate:          120,
	lateLimit:     10 * time.Millisecond,
	checkEvery:    8,
	guard: func(d fleetDelta, scale float64) error {
		if d.forwards == 0 {
			return errors.New("cell-churn: no request took the forward hop")
		}
		if d.gcRuns == 0 || d.gcEvictions == 0 {
			return fmt.Errorf("cell-churn: disk GC ran %d times and evicted %d artifacts; want both > 0", d.gcRuns, d.gcEvictions)
		}
		if c := d.computeShare(); scale == 1 && c < 0.5 {
			return fmt.Errorf("cell-churn: only %.3f of requests computed a cell; want >= 0.5", c)
		}
		return nil
	},
}

// cellSpec is one member of a working set with its request bodies.
type cellSpec struct {
	scheme, bench string
	seed          uint64
	perSet        bool
	body, delBody []byte
}

type cellConfig struct {
	Seed        uint64 `json:"seed"`
	TraceLength int    `json:"trace_length"`
}

// buildCells lays out the working set: cell i cycles scheme, then
// benchmark, and takes workload seed base + i; every fourth cell asks for
// the per-set distributions.
func (m cellMix) buildCells(seed uint64, scale float64) ([]cellSpec, error) {
	n := scaled(m.cells, scale, 2*len(m.schemes)*len(m.benches))
	base := seed*1_000_000 + m.seedBase
	length := scaled(m.length, scale, 2000)
	cells := make([]cellSpec, n)
	for i := range cells {
		c := cellSpec{
			scheme: m.schemes[i%len(m.schemes)],
			bench:  m.benches[(i/len(m.schemes))%len(m.benches)],
			seed:   base + uint64(i),
			perSet: i%4 == 0,
		}
		cfg := cellConfig{c.seed, length}
		var err error
		c.body, err = json.Marshal(struct {
			Scheme        string     `json:"scheme"`
			Benchmark     string     `json:"benchmark"`
			Config        cellConfig `json:"config"`
			IncludePerSet bool       `json:"include_per_set,omitempty"`
		}{c.scheme, c.bench, cfg, c.perSet})
		if err != nil {
			return nil, err
		}
		c.delBody, err = json.Marshal(struct {
			Scheme    string     `json:"scheme"`
			Benchmark string     `json:"benchmark"`
			Config    cellConfig `json:"config"`
		}{c.scheme, c.bench, cfg})
		if err != nil {
			return nil, err
		}
		cells[i] = c
	}
	return cells, nil
}

// simConfig is the core config a cell is simulated under.
func (c cellSpec) simConfig(length int) core.Config {
	cfg := core.Default()
	cfg.Seed = c.seed
	cfg.TraceLength = length
	return cfg.Canonical()
}

// schedule pre-draws n cell indices from the mix's Zipf popularity.
func (m cellMix) schedule(seed, salt uint64, cells, n int) []int {
	z := rng.NewZipf(rng.New(seed*0x9E3779B97F4A7C15^salt), m.skew, cells)
	out := make([]int, n)
	for i := range out {
		out[i] = z.Next()
	}
	return out
}

// resultView mirrors the server's response encoding of a result: Err as
// a string and the per-set distributions only on request.
type resultView struct {
	core.Result
	Err    string          `json:"Err,omitempty"`
	PerSet json.RawMessage `json:"PerSet,omitempty"`
}

// resultDigest is the SHA-256 of a result's canonical JSON as a response
// would carry it.
func resultDigest(res core.Result, perSet bool) (string, error) {
	v := resultView{Result: res}
	if res.Err != nil {
		v.Err = res.Err.Error()
	}
	if perSet {
		raw, err := json.Marshal(res.PerSet)
		if err != nil {
			return "", err
		}
		v.PerSet = raw
	}
	b, err := report.CanonicalJSON(v)
	if err != nil {
		return "", err
	}
	return digest(b), nil
}

// responseDigest extracts a /v1/cell response's key and result digest.
func responseDigest(body []byte) (key, sum string, err error) {
	var env struct {
		Key    string          `json:"key"`
		Result json.RawMessage `json:"result"`
	}
	if err = json.Unmarshal(body, &env); err != nil {
		return "", "", err
	}
	b, err := report.CanonicalJSON(env.Result)
	if err != nil {
		return "", "", err
	}
	return env.Key, digest(b), nil
}

// reference is the expected answer for one cell.
type reference struct{ key, sum string }

// references computes the expected key and result digest of each listed
// cell on a private memory-only store, nproc cells at a time, and
// returns the time each CellDecl took.
func references(ctx context.Context, cells []cellSpec, idx []int, length int) (map[int]reference, []time.Duration, error) {
	store, err := resultstore.Open(resultstore.Options{MemoryEntries: -1})
	if err != nil {
		return nil, nil, err
	}
	refs := make(map[int]reference, len(idx))
	var times []time.Duration
	var mu sync.Mutex
	err = forEach(ctx, idx, func(i int) error {
		c := cells[i]
		cfg := c.simConfig(length)
		sd, bd := registry.Decl{Name: c.scheme}, registry.Decl{Name: c.bench}
		t := time.Now()
		res, _, cerr := store.CellDecl(ctx, cfg, sd, bd)
		d := time.Since(t)
		if cerr != nil {
			return fmt.Errorf("reference %s/%s seed %d: %w", c.scheme, c.bench, c.seed, cerr)
		}
		key, kerr := resultstore.CellKeyDecl(cfg, sd, bd, store.Version())
		sum, derr := resultDigest(res, c.perSet)
		if kerr != nil || derr != nil {
			return errors.Join(kerr, derr)
		}
		mu.Lock()
		refs[i] = reference{key, sum}
		times = append(times, d)
		mu.Unlock()
		return nil
	})
	return refs, times, err
}

// forEach runs f over items with nproc workers and returns the first
// error.
func forEach(ctx context.Context, items []int, f func(int) error) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, nproc())
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= len(items) || ctx.Err() != nil {
					return
				}
				if err := f(items[j]); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	return ctx.Err()
}

// node is one in-process simd: store, optional cluster view, server and
// loopback listener.
type node struct {
	store *resultstore.Store
	cl    *cluster.Cluster
	hs    *http.Server
	url   string
	tap   *tap
	done  chan error
}

// fleet is the set of nodes serving one run; requests go to nodes[0].
type fleet struct{ nodes []*node }

// openFleet opens every node's store, starts its server and waits until
// every node answers /v1/readyz — the set-up the workload times.
func openFleet(ctx context.Context, m cellMix, dirs []string, seed uint64, rec *recorder) (*fleet, error) {
	f := &fleet{}
	lns := make([]net.Listener, len(dirs))
	urls := make([]string, len(dirs))
	for i := range dirs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.closeListeners(lns)
			return nil, err
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	var probes sync.WaitGroup
	for i, dir := range dirs {
		store, err := resultstore.Open(resultstore.Options{
			Dir: dir, MemoryEntries: m.memEntries, QuotaBytes: m.quota, CompileTraces: m.compileTraces,
		})
		if err != nil {
			f.closeListeners(lns[i:])
			f.stop()
			return nil, err
		}
		n := &node{store: store, url: urls[i], done: make(chan error, 1)}
		if len(dirs) > 1 {
			n.cl, err = cluster.New(cluster.Config{Self: urls[i], Peers: urls, Seed: seed})
			if err != nil {
				f.closeListeners(lns[i:])
				f.stop()
				return nil, err
			}
		}
		srv, err := server.New(server.Config{Store: store, Sim: core.Default(), MaxConcurrent: nproc(), Cluster: n.cl})
		if err != nil {
			f.closeListeners(lns[i:])
			f.stop()
			return nil, err
		}
		var h http.Handler = srv.Handler()
		if rec != nil {
			n.tap = &tap{next: h, rec: rec}
			h = n.tap
		}
		n.hs = &http.Server{Handler: h}
		go func(ln net.Listener) { n.done <- n.hs.Serve(ln) }(lns[i])
		f.nodes = append(f.nodes, n)
		if n.cl != nil {
			probes.Add(1)
			go func() {
				defer probes.Done()
				n.cl.Probe(ctx)
			}()
		}
	}
	probes.Wait()
	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	for _, n := range f.nodes {
		if err := waitReady(ctx, hc, n.url); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

func (f *fleet) closeListeners(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			_ = ln.Close()
		}
	}
}

func waitReady(ctx context.Context, hc *http.Client, url string) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s never became ready: %w", url, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// stop shuts every node down and waits for its serve loop to return.
func (f *fleet) stop() {
	for _, n := range f.nodes {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = n.hs.Shutdown(sctx)
		cancel()
		<-n.done
		if n.cl != nil {
			n.cl.Close()
		}
	}
}

// fleetDelta is the change in the fleet's store and cluster counters over
// the timed phases.
type fleetDelta struct {
	requests                   int64
	memHits, diskHits, misses  uint64
	allMisses                  uint64 // misses summed over every node
	gcRuns, gcEvictions, waits uint64
	forwards, hedges, fills    uint64
	fallbacks                  uint64
}

func (d fleetDelta) shares() (mem, disk, miss float64) {
	t := float64(d.memHits + d.diskHits + d.misses)
	if t == 0 {
		return 0, 0, 0
	}
	return float64(d.memHits) / t, float64(d.diskHits) / t, float64(d.misses) / t
}

func (d fleetDelta) computeShare() float64 {
	if d.requests == 0 {
		return 0
	}
	return float64(d.allMisses) / float64(d.requests)
}

// snapshot reads every node's counters: the store's directly, the
// cluster's from the first node's /v1/metrics exposition.
type fleetSnapshot struct {
	stores []resultstore.Counters
	prom   map[string]float64
}

func (f *fleet) snapshot(ctx context.Context, hc *http.Client) (fleetSnapshot, error) {
	s := fleetSnapshot{}
	for _, n := range f.nodes {
		s.stores = append(s.stores, n.store.Counters())
	}
	var err error
	s.prom, err = scrape(ctx, hc, f.nodes[0].url)
	return s, err
}

func delta(a, b fleetSnapshot, requests int64) fleetDelta {
	d := fleetDelta{requests: requests}
	s0, s1 := a.stores[0], b.stores[0]
	d.memHits = s1.MemoryHits - s0.MemoryHits
	d.diskHits = s1.DiskHits - s0.DiskHits
	d.misses = s1.Misses - s0.Misses
	d.gcRuns = s1.GCRuns - s0.GCRuns
	d.gcEvictions = s1.GCEvictions - s0.GCEvictions
	d.waits = s1.DiskLockWaits - s0.DiskLockWaits
	for i := range b.stores {
		d.allMisses += b.stores[i].Misses - a.stores[i].Misses
	}
	diff := func(name string) uint64 { return uint64(b.prom[name] - a.prom[name]) }
	d.forwards = diff("simd_peer_forwards_total")
	d.hedges = diff("simd_peer_hedges_total")
	d.fills = diff("simd_store_peer_fills_total")
	d.fallbacks = diff("simd_cluster_fallbacks_total")
	return d
}

// scrape sums every series of each family in a node's /v1/metrics.
func scrape(ctx context.Context, hc *http.Client, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		sp := bytes.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if br := bytes.IndexByte(name, '{'); br >= 0 {
			name = name[:br]
		}
		v, err := strconv.ParseFloat(string(line[sp+1:]), 64)
		if err != nil {
			continue
		}
		out[string(name)] += v
	}
	return out, nil
}

// cellRun holds everything one serving run sets up.
type cellRun struct {
	m      cellMix
	o      options
	cells  []cellSpec
	length int
	fleet  *fleet
	setups []float64
	// refs holds reference answers for cells checked during and after
	// the timed phases.
	refs map[int]reference
}

// setUp prepares the working set (pre-populating the store when the mix
// asks for it), then opens the fleet several times, timing each, and
// keeps the last one.
func setUp(ctx context.Context, o options, m cellMix, rec *recorder) (*cellRun, error) {
	// Smaller working sets get proportionally smaller tiers, so the
	// traffic keeps its character at every scale.
	if m.memEntries > 0 {
		m.memEntries = scaled(m.memEntries, o.scale, 4)
	}
	m.quota = int64(scaled(int(m.quota), o.scale, 0))
	r := &cellRun{m: m, o: o, length: scaled(m.length, o.scale, 2000)}
	var err error
	if r.cells, err = m.buildCells(o.seed, o.scale); err != nil {
		return nil, err
	}
	dirs := make([]string, m.nodes)
	for i := range dirs {
		dirs[i] = filepath.Join(o.work, fmt.Sprintf("%s-node%d", m.name, i))
	}
	if m.prepopulate {
		if err := r.populate(ctx, dirs[0]); err != nil {
			return nil, err
		}
	}
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		f, err := openFleet(ctx, m, dirs, o.seed, rec)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, time.Since(t).Seconds())
		if i < setupRepeats-1 {
			f.stop()
			continue
		}
		r.fleet = f
	}
	return r, nil
}

// populate computes the whole working set into the first node's store,
// and the reference answers for every cell on a private store.
func (r *cellRun) populate(ctx context.Context, dir string) error {
	store, err := resultstore.Open(resultstore.Options{Dir: dir, MemoryEntries: -1})
	if err != nil {
		return err
	}
	all := make([]int, len(r.cells))
	for i := range all {
		all[i] = i
	}
	err = forEach(ctx, all, func(i int) error {
		c := r.cells[i]
		_, _, cerr := store.CellDecl(ctx, c.simConfig(r.length), registry.Decl{Name: c.scheme}, registry.Decl{Name: c.bench})
		return cerr
	})
	if err != nil {
		return fmt.Errorf("populate: %w", err)
	}
	r.refs, _, err = references(ctx, r.cells, all, r.length)
	return err
}

// client is one load-generator connection.
type client struct {
	hc *http.Client
	tr *http.Transport
}

func newClients(n int) []*client {
	out := make([]*client, n)
	for i := range out {
		tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
		out[i] = &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, tr: tr}
	}
	return out
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.tr.CloseIdleConnections()
	}
}

// spanHeader carries the load generator's root span id to the timing
// wrapper, so the handler span is recorded as its child.
const spanHeader = "X-Perfbench-Span"

// do sends one request and returns its status and body.
func (c *client) do(ctx context.Context, method, url string, body []byte, span int64) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if span != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(span, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	return resp.StatusCode, data, err
}

// loadResult tallies one load phase.
type loadResult struct {
	attempted, ok int64
	elapsed       time.Duration
	latencies     []time.Duration // open loop: from each request's due time
	late          []time.Duration // open loop: generator wake-up lateness
	// stamps place each sample in the phase, as an offset from its start:
	// the completion of each 2xx answer (closed loop) or the due time of
	// each latency sample (open loop).
	stamps []time.Duration
	checks []checked
	errs   []error
}

// checked is one timed response kept for the correctness check.
type checked struct {
	cell     int
	key, sum string
}

func (l *loadResult) merge(o loadResult) {
	l.attempted += o.attempted
	l.ok += o.ok
	l.latencies = append(l.latencies, o.latencies...)
	l.late = append(l.late, o.late...)
	l.stamps = append(l.stamps, o.stamps...)
	l.checks = append(l.checks, o.checks...)
	l.errs = append(l.errs, o.errs...)
}

// phase is the state one load phase shares between its workers.
type phase struct {
	r       *cellRun
	target  string
	sched   []int
	rec     *recorder
	reqBase int64 // request ids of this phase start above it
	// sample, when set, runs on every checked response (traced runs time
	// the server's in-process calls there).
	sample func(spec cellSpec, body []byte, root int64)
}

// request sends schedule entry j and any admin operation due after it,
// and reports whether the cell request was answered 2xx.
func (p *phase) request(ctx context.Context, c *client, j int, out *loadResult) bool {
	cell := p.sched[j%len(p.sched)]
	spec := p.r.cells[cell]
	req := p.reqBase + int64(j) + 1
	root := p.rec.begin("loadgen.request", 0, req)
	status, body, err := c.do(ctx, http.MethodPost, p.target+"/v1/cell", spec.body, root)
	p.rec.end(root)
	out.attempted++
	ok := err == nil && status/100 == 2
	switch {
	case err != nil:
		out.errs = append(out.errs, err)
	case !ok:
		out.errs = append(out.errs, fmt.Errorf("%s/%s seed %d: status %d", spec.scheme, spec.bench, spec.seed, status))
	default:
		out.ok++
		if p.r.m.checkEvery > 0 && (uint64(j)*0x9E3779B97F4A7C15+p.r.o.seed)>>32%uint64(p.r.m.checkEvery) == 0 {
			key, sum, err := responseDigest(body)
			if err != nil {
				out.errs = append(out.errs, err)
			}
			out.checks = append(out.checks, checked{cell, key, sum})
			if p.sample != nil {
				p.sample(spec, body, root)
			}
		}
	}
	if every := p.r.m.adminEvery; every > 0 && (j+1)%every == 0 {
		method, path, abody := http.MethodPost, "/v1/gc", []byte("{}")
		if ((j+1)/every)%2 == 1 {
			method, path, abody = http.MethodDelete, "/v1/cell", spec.delBody
		}
		out.attempted++
		status, _, err := c.do(ctx, method, p.target+path, abody, 0)
		switch {
		case err != nil:
			out.errs = append(out.errs, err)
		case status != http.StatusOK:
			out.errs = append(out.errs, fmt.Errorf("admin %s %s: status %d", method, path, status))
		default:
			out.ok++
		}
	}
	return ok
}

// closedLoop runs one worker per client, each sending its next request
// when the previous one completes, until dur has passed.
func (p *phase) closedLoop(ctx context.Context, clients []*client, dur time.Duration) loadResult {
	var next atomic.Int64
	results := make([]loadResult, len(clients))
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := &results[w]
			for ctx.Err() == nil && time.Now().Before(deadline) {
				if p.request(ctx, c, int(next.Add(1)-1), out) {
					out.stamps = append(out.stamps, time.Since(start))
				}
			}
		}()
	}
	wg.Wait()
	var out loadResult
	for _, r := range results {
		out.merge(r)
	}
	out.elapsed = time.Since(start)
	return out
}

// openLoop sends n requests at a fixed rate: request j is due at
// start + j/rate whatever happened before it, and its latency counts
// from that due time.  A worker that is idle when a request falls due
// records how late it woke: that lateness is the generator's own.
func (p *phase) openLoop(ctx context.Context, clients []*client, rate float64, n int) loadResult {
	var next atomic.Int64
	results := make([]loadResult, len(clients))
	start := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for w, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := &results[w]
			for ctx.Err() == nil {
				j := int(next.Add(1) - 1)
				if j >= n {
					return
				}
				due := start.Add(time.Duration(float64(j) / rate * float64(time.Second)))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					out.late = append(out.late, time.Since(due))
				}
				p.request(ctx, c, j, out)
				out.latencies = append(out.latencies, time.Since(due))
				out.stamps = append(out.stamps, due.Sub(start))
			}
		}()
	}
	wg.Wait()
	var out loadResult
	for _, r := range results {
		out.merge(r)
	}
	out.elapsed = time.Since(start)
	return out
}

// window is the length of the windows a phase's statistics are taken
// over: one second, or long enough for 1000 open-loop samples at rate.
func window(rate float64) time.Duration {
	return max(time.Second, time.Duration(1000/rate*float64(time.Second)))
}

// windowRate is the median, over the whole windows of length w inside
// dur, of the number of completions per second.  A median over windows
// keeps one stall from moving the run's number.
func windowRate(l loadResult, dur, w time.Duration) float64 {
	n := int(dur / w)
	if n == 0 {
		return float64(len(l.stamps)) / l.elapsed.Seconds()
	}
	counts := make([]float64, n)
	for _, s := range l.stamps {
		if k := int(s / w); k < n {
			counts[k]++
		}
	}
	for k := range counts {
		counts[k] /= w.Seconds()
	}
	return median(counts)
}

// windowQuantile is the median, over windows of length w by due time, of
// each window's q-quantile of open-loop latency in milliseconds.
func windowQuantile(l loadResult, w time.Duration, q float64) float64 {
	byWin := map[int][]float64{}
	for i, s := range l.stamps {
		k := int(s / w)
		byWin[k] = append(byWin[k], float64(l.latencies[i])/float64(time.Millisecond))
	}
	var qs []float64
	for _, lat := range byWin {
		qs = append(qs, quantile(lat, q))
	}
	return median(qs)
}

// verify counts checked responses whose key or result digest differs from
// the reference, computing missing references first.
func (r *cellRun) verify(ctx context.Context, checks []checked) (wrong int, cold []time.Duration, err error) {
	var missing []int
	seen := map[int]bool{}
	for _, c := range checks {
		if _, ok := r.refs[c.cell]; !ok && !seen[c.cell] {
			seen[c.cell] = true
			missing = append(missing, c.cell)
		}
	}
	if len(missing) > 0 {
		refs, times, err := references(ctx, r.cells, missing, r.length)
		if err != nil {
			return 0, nil, err
		}
		if r.refs == nil {
			r.refs = map[int]reference{}
		}
		for i, ref := range refs {
			r.refs[i] = ref
		}
		cold = times
	}
	for _, c := range checks {
		if ref := r.refs[c.cell]; ref.key != c.key || ref.sum != c.sum {
			wrong++
		}
	}
	return wrong, cold, nil
}

// sweep requests every cell once and checks every answer.
func (r *cellRun) sweep(ctx context.Context, clients []*client) ([]checked, int, error) {
	var next atomic.Int64
	var mu sync.Mutex
	var checks []checked
	var failed int
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	for w, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(r.cells) {
					return
				}
				status, body, err := c.do(ctx, http.MethodPost, r.fleet.nodes[0].url+"/v1/cell", r.cells[i].body, 0)
				if err != nil || status != http.StatusOK {
					mu.Lock()
					failed++
					mu.Unlock()
					continue
				}
				key, sum, err := responseDigest(body)
				if err != nil {
					errs[w] = err
					return
				}
				mu.Lock()
				checks = append(checks, checked{i, key, sum})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return checks, failed, errors.Join(errs...)
}

// warm sends the mix's untimed warm-up requests, so the memory tier holds
// the hot cells before timing starts.
func (r *cellRun) warm(ctx context.Context, clients []*client) {
	if r.m.warmup == 0 {
		return
	}
	p := &phase{r: r, target: r.fleet.nodes[0].url, sched: r.m.schedule(r.o.seed, 99, len(r.cells), 1<<18)}
	p.closedLoop(ctx, clients, time.Duration(float64(r.m.warmup)*r.o.scale))
}

// timedPhases runs the closed loop for half the window and the open loop
// for the other half, rerunning an open loop whose generator fell behind
// its limit (at most twice).
func (r *cellRun) timedPhases(ctx context.Context, clients []*client, seconds float64, rec *recorder, salt uint64) (closed, open loadResult, err error) {
	half := time.Duration(seconds / 2 * float64(time.Second))
	target := r.fleet.nodes[0].url
	closedP := &phase{r: r, target: target, sched: r.m.schedule(r.o.seed, salt+1, len(r.cells), 1<<18), rec: rec}
	// One client: with nproc clients the loop saturates every core, and
	// the shared host's drift in parallel capacity then moved the rate
	// by a quarter from run to run.
	closed = closedP.closedLoop(ctx, clients[:1], half)
	n := int(r.m.rate * half.Seconds())
	openP := &phase{r: r, target: target, sched: r.m.schedule(r.o.seed, salt+2, len(r.cells), n), rec: rec, reqBase: 1 << 40}
	for attempt := 0; ; attempt++ {
		open = openP.openLoop(ctx, clients, r.m.rate, n)
		late := quantile(durations(open.late, time.Millisecond), 0.99)
		if len(open.late) == 0 || late <= float64(r.m.lateLimit)/float64(time.Millisecond) {
			return closed, open, nil
		}
		if attempt == 2 {
			return closed, open, fmt.Errorf("%s: open-loop generator ran %.2f ms late at p99 (limit %v) three times; run invalid",
				r.m.name, late, r.m.lateLimit)
		}
	}
}

// runCells is a serving workload: set up the fleet, warm it, measure a
// closed loop and an open loop, then check answers and guards.
func runCells(ctx context.Context, o options, m cellMix) (*outcome, error) {
	r, err := setUp(ctx, o, m, nil)
	if err != nil {
		return nil, err
	}
	defer r.fleet.stop()
	clients := newClients(nproc())
	defer closeClients(clients)
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()

	r.warm(ctx, clients)
	before, err := r.fleet.snapshot(ctx, hc)
	if err != nil {
		return nil, err
	}
	heap := startHeapSampler()
	closed, open, err := r.timedPhases(ctx, clients, o.seconds, nil, 0)
	peak := heap.Stop()
	if err != nil {
		return nil, err
	}
	after, err := r.fleet.snapshot(ctx, hc)
	if err != nil {
		return nil, err
	}
	var all loadResult
	all.merge(closed)
	all.merge(open)
	d := delta(before, after, all.attempted)
	if err = m.guard(d, o.scale); err != nil {
		return nil, err
	}

	checks := all.checks
	if m.prepopulate {
		swept, failed, serr := r.sweep(ctx, clients)
		if serr != nil {
			return nil, serr
		}
		checks = append(checks, swept...)
		all.attempted += int64(len(swept) + failed)
		all.ok += int64(len(swept))
	}
	wrong, _, err := r.verify(ctx, checks)
	if err != nil {
		return nil, err
	}

	out := newOutcome()
	half := time.Duration(o.seconds / 2 * float64(time.Second))
	rps := windowRate(closed, half, time.Second)
	lat := durations(open.latencies, time.Millisecond)
	w := window(m.rate)
	out.set("setup_s", median(r.setups), "s")
	out.set("wall_s", 1000/rps, "s")
	out.set("sim_accesses_per_s", rps*float64(r.length), "1/s")
	out.set("req_per_s", rps, "1/s")
	out.set("p50_ms", windowQuantile(open, w, 0.50), "ms")
	out.set("p99_ms", windowQuantile(open, w, 0.99), "ms")
	out.set("ok_frac", float64(all.ok)/float64(all.attempted), "ratio")
	out.set("heap_peak_mb", peak, "MB")
	out.Attempted = all.attempted
	out.Failed = all.attempted - all.ok + int64(wrong)
	out.Correct = wrong == 0
	mem, disk, miss := d.shares()
	out.note("%s: %d cells, closed %d req in %.2fs, open %d samples at %.0f/s in %v windows (whole-phase p50 %.3f p99 %.3f ms, late p99 %.3f ms), wrong_total=%d of %d checked",
		m.name, len(r.cells), closed.ok, closed.elapsed.Seconds(), len(lat), m.rate, w, quantile(lat, 0.5), quantile(lat, 0.99),
		quantile(durations(open.late, time.Millisecond), 0.99), wrong, len(checks))
	out.note("%s: store shares memory %.3f disk %.3f miss %.3f; compute share %.3f; forwards %d; gc runs %d evictions %d",
		m.name, mem, disk, miss, d.computeShare(), d.forwards, d.gcRuns, d.gcEvictions)
	for i, e := range all.errs {
		if i == 5 {
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: failed request:", e)
	}
	return out, nil
}
