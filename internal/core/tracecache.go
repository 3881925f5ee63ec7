package core

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"cacheuniformity/internal/trace"
	"cacheuniformity/internal/workload"
)

// TraceSource supplies compiled traces to the engines (Config.Traces).
// Implementations compile each benchmark's canonical access stream once
// and serve the decoded artifact on every later request.  MemTraceCache
// below implements it; internal/resultstore's persistent trace tier is a
// MemTraceCache whose Compile fill reads and writes on-disk artifacts.
type TraceSource interface {
	// CompiledTrace returns the compiled trace replaying exactly the
	// stream bench.Stream(cfg.Seed, cfg.TraceLength) would produce.
	// (nil, nil) means "not available — use the generator"; an error is
	// also treated as a generator fallback by the engines, never as a
	// cell failure.  Implementations must not be called for benchmarks
	// without a trace-cache identity (bench.Key == ""); the engines
	// guarantee that.
	CompiledTrace(ctx context.Context, cfg Config, bench workload.Spec) (*trace.Compiled, error)
}

// traceKey is the in-memory cache identity of a compiled trace: the
// benchmark's canonical key plus the stream-determining config fields.
func traceKey(cfg Config, bench workload.Spec) string {
	return fmt.Sprintf("%s\x00%d\x00%d", bench.Key, cfg.Seed, cfg.TraceLength)
}

// MemTraceCache is a byte-budgeted in-memory TraceSource: compile on
// first use, replay from the decoded artifact afterwards, evict least
// recently used artifacts once the budget is exceeded.  Concurrent
// requests for the same key collapse onto one compilation.  It is safe
// for concurrent use.
type MemTraceCache struct {
	// Compile fills a miss; it runs once per key, however many requests
	// wait on it (nil = bench.Compile at trace.DefaultSegment).  Set it
	// before first use.  A persistent tier fills from its own artifacts
	// here; tests compile short segments to exercise sharded replay on
	// short traces.
	Compile func(ctx context.Context, cfg Config, bench workload.Spec) (*trace.Compiled, error)

	max int

	mu       sync.Mutex
	entries  map[string]*list.Element
	order    *list.List // front = most recently used
	bytes    int
	inflight map[string]*traceFlight

	compiles, hits uint64
}

type memTraceEntry struct {
	key string
	ct  *trace.Compiled
}

type traceFlight struct {
	done chan struct{}
	ct   *trace.Compiled
	err  error
}

// DefaultTraceCacheBytes is MemTraceCache's default budget: enough for
// dozens of paper-default traces (~0.6 MB compiled each).
const DefaultTraceCacheBytes = 64 << 20

// NewMemTraceCache returns a cache bounded to maxBytes of compiled
// payload (<= 0 means DefaultTraceCacheBytes).
func NewMemTraceCache(maxBytes int) *MemTraceCache {
	if maxBytes <= 0 {
		maxBytes = DefaultTraceCacheBytes
	}
	return &MemTraceCache{
		max:      maxBytes,
		entries:  make(map[string]*list.Element),
		order:    list.New(),
		inflight: make(map[string]*traceFlight),
	}
}

// Stats reports (compilations, cache hits) so far — the observability
// hook the benchmarks and tests assert against.  A compilation is one
// successful Compile fill, whatever that fill does.
func (m *MemTraceCache) Stats() (compiles, hits uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.compiles, m.hits
}

// CompiledTrace implements TraceSource.
func (m *MemTraceCache) CompiledTrace(ctx context.Context, cfg Config, bench workload.Spec) (*trace.Compiled, error) {
	if bench.Key == "" {
		return nil, fmt.Errorf("core: benchmark %q has no trace-cache identity", bench.Name)
	}
	key := traceKey(cfg, bench)
	for {
		m.mu.Lock()
		if el, ok := m.entries[key]; ok {
			m.order.MoveToFront(el)
			m.hits++
			ct := el.Value.(*memTraceEntry).ct
			m.mu.Unlock()
			return ct, nil
		}
		if fl, ok := m.inflight[key]; ok {
			m.mu.Unlock()
			select {
			case <-fl.done:
				if fl.err == nil {
					return fl.ct, nil
				}
				// The leader failed (typically its context); retry unless
				// this request is dead too.
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		fl := &traceFlight{done: make(chan struct{})}
		m.inflight[key] = fl
		m.mu.Unlock()

		compile := m.Compile
		if compile == nil {
			compile = compileDefault
		}
		ct, err := compile(ctx, cfg, bench)
		fl.ct, fl.err = ct, err

		m.mu.Lock()
		delete(m.inflight, key)
		if err == nil {
			m.compiles++
			m.insert(key, ct)
		}
		m.mu.Unlock()
		close(fl.done)
		return ct, err
	}
}

// compileDefault is MemTraceCache's fill when Compile is nil.
func compileDefault(ctx context.Context, cfg Config, bench workload.Spec) (*trace.Compiled, error) {
	return bench.Compile(ctx, cfg.Seed, cfg.TraceLength, 0)
}

// insert adds an artifact and evicts from the cold end until the budget
// holds again.  Callers hold m.mu.  An artifact larger than the whole
// budget is served but not retained.
func (m *MemTraceCache) insert(key string, ct *trace.Compiled) {
	size := ct.SizeBytes()
	if size > m.max {
		return
	}
	m.entries[key] = m.order.PushFront(&memTraceEntry{key: key, ct: ct})
	m.bytes += size
	for m.bytes > m.max {
		el := m.order.Back()
		if el == nil {
			break
		}
		ent := el.Value.(*memTraceEntry)
		m.order.Remove(el)
		delete(m.entries, ent.key)
		m.bytes -= ent.ct.SizeBytes()
	}
}
