// Package server exposes the simulator over HTTP: a small JSON API in
// front of internal/resultstore, so repeated requests for the same
// experiment cost a cache lookup instead of a simulation.  The package
// builds an http.Handler; cmd/simd owns the listener, flags, and
// lifecycle.
//
// Endpoints:
//
//	POST   /v1/cell        one (scheme, benchmark) cell
//	DELETE /v1/cell        admin: evict one cell from every tier
//	POST   /v1/grid        a scheme × benchmark grid
//	POST   /v1/gc          admin: run disk GC toward a byte target
//	GET    /v1/storestats  admin: store usage snapshot + counters
//	GET    /v1/schemes     the composition catalog (roster, kinds, schemas)
//	GET    /v1/healthz     liveness
//	GET    /v1/metrics     Prometheus text metrics
//
// Cell and grid requests name schemes and benchmarks either as catalog
// names ("xor", "crc") or as inline declarations composing a registered
// kind ({"kind":"victim","params":{"entries":32}}); invalid declarations
// are rejected 400 with the offending field path in the error.
//
// Every response body is canonical JSON: identical requests against warm
// stores produce byte-identical responses.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/cluster"
	"cacheuniformity/internal/core"
	"cacheuniformity/internal/registry"
	"cacheuniformity/internal/report"
	"cacheuniformity/internal/resultstore"
	"cacheuniformity/internal/workload"
)

// Defaults for Config fields left zero.
const (
	DefaultMaxBodyBytes   = 1 << 20
	DefaultRequestTimeout = 60 * time.Second
	DefaultMaxTraceLength = 5_000_000
	DefaultMaxCells       = 1024
)

// Config assembles a Server.
type Config struct {
	// Store backs every simulation; required.
	Store *resultstore.Store
	// Sim is the base simulation config; request overrides are applied on
	// top of its canonical form.
	Sim core.Config
	// MaxBodyBytes bounds request bodies (0 = DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// RequestTimeout bounds each request's simulation work
	// (0 = DefaultRequestTimeout).
	RequestTimeout time.Duration
	// MaxConcurrent bounds requests simulating at once; excess requests
	// wait for a slot until their timeout (0 = GOMAXPROCS).
	MaxConcurrent int
	// MaxTraceLength rejects requests asking for more accesses per
	// benchmark (0 = DefaultMaxTraceLength).
	MaxTraceLength int
	// MaxCells rejects grid requests larger than schemes × benchmarks
	// cells (0 = DefaultMaxCells).
	MaxCells int
	// Cluster enables fleet mode: cell requests whose key this node does
	// not own are forwarded to the owning peer (nil = single node).
	Cluster *cluster.Cluster
	// MaxQueueDepth bounds how many requests may wait for a worker slot;
	// beyond it the server sheds immediately with 503 + Retry-After
	// instead of queueing toward a timeout (0 = 4 × MaxConcurrent).
	MaxQueueDepth int
}

// Server handles the API; build with New, mount via Handler.
type Server struct {
	cfg      Config
	sem      chan struct{}
	met      metrics
	draining atomic.Bool
	queued   atomic.Int64
}

// New validates the configuration and returns a ready Server.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("server: Config.Store is required")
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxTraceLength <= 0 {
		cfg.MaxTraceLength = DefaultMaxTraceLength
	}
	if cfg.MaxCells <= 0 {
		cfg.MaxCells = DefaultMaxCells
	}
	if cfg.MaxQueueDepth <= 0 {
		cfg.MaxQueueDepth = 4 * cfg.MaxConcurrent
	}
	cfg.Sim = cfg.Sim.Canonical()
	s := &Server{cfg: cfg, sem: make(chan struct{}, cfg.MaxConcurrent)}
	s.met.start = now()
	return s, nil
}

// Handler returns the API mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cell", s.handleCell)
	mux.HandleFunc("DELETE /v1/cell", s.handleDeleteCell)
	mux.HandleFunc("POST /v1/grid", s.handleGrid)
	mux.HandleFunc("POST /v1/gc", s.handleGC)
	mux.HandleFunc("GET /v1/storestats", s.handleStoreStats)
	mux.HandleFunc("GET /v1/schemes", s.handleSchemes)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	return mux
}

// simOverrides is the request-side view of core.Config: every field
// optional, geometry spelled in human units and validated through
// addr.NewLayout rather than trusted bit counts.
type simOverrides struct {
	TraceLength *int     `json:"trace_length,omitempty"`
	Seed        *uint64  `json:"seed,omitempty"`
	MissPenalty *float64 `json:"miss_penalty,omitempty"`
	BlockBytes  *int     `json:"block_bytes,omitempty"`
	Sets        *int     `json:"sets,omitempty"`
	AddressBits *uint    `json:"address_bits,omitempty"`
}

// simConfig applies request overrides to the server's base config and
// enforces the resource limits.
func (s *Server) simConfig(o *simOverrides) (core.Config, error) {
	cfg := s.cfg.Sim
	if o != nil {
		if o.TraceLength != nil {
			cfg.TraceLength = *o.TraceLength
		}
		if o.Seed != nil {
			cfg.Seed = *o.Seed
		}
		if o.MissPenalty != nil {
			cfg.MissPenalty = *o.MissPenalty
		}
		if o.BlockBytes != nil || o.Sets != nil || o.AddressBits != nil {
			blockBytes, sets, bits := cfg.Layout.BlockBytes(), cfg.Layout.Sets(), cfg.Layout.AddressBits
			if o.BlockBytes != nil {
				blockBytes = *o.BlockBytes
			}
			if o.Sets != nil {
				sets = *o.Sets
			}
			if o.AddressBits != nil {
				bits = *o.AddressBits
			}
			l, err := addr.NewLayout(blockBytes, sets, bits)
			if err != nil {
				return core.Config{}, err
			}
			cfg.Layout = l
		}
	}
	if cfg.TraceLength <= 0 {
		return core.Config{}, fmt.Errorf("server: trace_length must be positive, got %d", cfg.TraceLength)
	}
	if cfg.TraceLength > s.cfg.MaxTraceLength {
		return core.Config{}, fmt.Errorf("server: trace_length %d exceeds the limit of %d", cfg.TraceLength, s.cfg.MaxTraceLength)
	}
	if cfg.MissPenalty < 0 {
		return core.Config{}, fmt.Errorf("server: miss_penalty must be non-negative, got %g", cfg.MissPenalty)
	}
	return cfg.Canonical(), nil
}

// resultJSON serialises a core.Result for a response.  The shadow fields
// replace the embedded ones: Err becomes a string (an error interface
// does not survive JSON), and PerSet is omitted unless the request asked
// for the raw per-set distributions.
type resultJSON struct {
	core.Result
	Err    string          `json:"Err,omitempty"`
	PerSet json.RawMessage `json:"PerSet,omitempty"`
}

func toResultJSON(res core.Result, includePerSet bool) (resultJSON, error) {
	out := resultJSON{Result: res}
	if res.Err != nil {
		out.Err = res.Err.Error()
	}
	if includePerSet {
		raw, err := json.Marshal(res.PerSet)
		if err != nil {
			return resultJSON{}, err
		}
		out.PerSet = raw
	}
	return out, nil
}

// cellRequest's scheme and benchmark are declarations: a bare name
// string refers to the catalog ("xor", "crc"), an object composes a
// registered kind inline ({"kind":"victim","params":{"entries":32}}).
// Invalid compositions are rejected 400 with the offending field named.
type cellRequest struct {
	Scheme        registry.Decl `json:"scheme"`
	Benchmark     registry.Decl `json:"benchmark"`
	Config        *simOverrides `json:"config,omitempty"`
	IncludePerSet bool          `json:"include_per_set,omitempty"`
}

// cellResponse is the /v1/cell reply.  replyCell writes it by hand
// (render.go); Result is the shape of the "result" value, which it takes
// from the store's rendering instead.
type cellResponse struct {
	Scheme    string `json:"scheme"`
	Benchmark string `json:"benchmark"`
	// SchemeDecl and BenchmarkDecl echo the canonical declarations the
	// cell was keyed by (defaults filled, parameters normalised), as the
	// canonical JSON the key hashed.
	SchemeDecl    json.RawMessage    `json:"scheme_decl"`
	BenchmarkDecl json.RawMessage    `json:"benchmark_decl"`
	Key           string             `json:"key"`
	Origin        resultstore.Origin `json:"origin"`
	ElapsedNs     int64              `json:"elapsed_ns"`
	Result        resultJSON         `json:"result"`
}

// declEmpty reports a declaration the request left entirely unset.
func declEmpty(d registry.Decl) bool {
	return d.Name == "" && d.Kind == "" && len(d.Params) == 0
}

func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	s.met.cellRequests.Add(1)
	var req cellRequest
	if !s.decode(w, r, &req) {
		return
	}
	if declEmpty(req.Scheme) || declEmpty(req.Benchmark) {
		s.fail(w, http.StatusBadRequest, errors.New("server: scheme and benchmark are required"))
		return
	}
	decls, err := resultstore.Resolve(req.Scheme, req.Benchmark)
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("server: %w", err))
		return
	}
	cfg, err := s.simConfig(req.Config)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	key, err := resultstore.CellKeyCanonical(cfg, decls.SchemeJSON, decls.BenchJSON, s.cfg.Store.Version())
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	id := cellID{cfg: cfg, Resolved: decls, key: key}

	forwarded := r.Header.Get(cluster.ForwardHeader) != ""
	if forwarded && s.draining.Load() {
		// Shed forwarded work during drain: the forwarder sees the 503,
		// honours Retry-After, and recomputes elsewhere; only requests
		// already in flight ride out the drain window.
		s.met.drainSheds.Add(1)
		s.fail(w, http.StatusServiceUnavailable, errDrainingShed)
		return
	}
	if cl := s.cfg.Cluster; cl != nil && !forwarded {
		if owner := cl.Owner(key); owner != cl.Self() {
			if s.serveForwarded(w, r, &req, &id) {
				return
			}
			// Every rung of the forward path failed; compute locally so
			// the client still gets a correct answer.
			s.met.forwardFallbacks.Add(1)
		}
	}

	ctx, cancel, ok := s.acquire(w, r)
	if !ok {
		return
	}
	defer cancel()

	started := now()
	served, err := s.cfg.Store.CellResolved(ctx, cfg, id.Scheme, id.Spec, key)
	if err != nil {
		s.fail(w, statusFor(ctx.Err(), err), err)
		return
	}
	s.replyCell(w, &req, &id, served, now().Sub(started).Nanoseconds())
}

// cellID is a /v1/cell request's identity, resolved once: the
// effective config, both declarations resolved through the registry
// with their canonical JSON, and the store key derived from them.
type cellID struct {
	cfg core.Config
	resultstore.Resolved
	key string
}

// gridRequest's scheme and benchmark lists are declarations, same
// grammar as cellRequest: bare catalog names or inline compositions.
type gridRequest struct {
	// Schemes and Benchmarks default to every scheme and the paper's
	// MiBench figure order.
	Schemes       []registry.Decl `json:"schemes,omitempty"`
	Benchmarks    []registry.Decl `json:"benchmarks,omitempty"`
	Config        *simOverrides   `json:"config,omitempty"`
	IncludePerSet bool            `json:"include_per_set,omitempty"`
}

type gridResponse struct {
	Schemes    []string                         `json:"schemes"`
	Benchmarks []string                         `json:"benchmarks"`
	ElapsedNs  int64                            `json:"elapsed_ns"`
	Grid       map[string]map[string]resultJSON `json:"grid"`
	Store      resultstore.Counters             `json:"store"`
}

// namesByDecl resolves a declaration list to its instance names, failing
// on invalid declarations (field is "schemes" or "benchmarks"; the error
// names the offending index and field) and on a name that is declared
// twice — the response grid is keyed by name, so a reused name would
// make it ambiguous.
func namesByDecl(field string, decls []registry.Decl, resolve func(registry.Decl) (string, error)) ([]string, error) {
	names := make([]string, len(decls))
	seen := make(map[string]int, len(decls))
	for i, d := range decls {
		n, err := resolve(d)
		if err != nil {
			return nil, fmt.Errorf("server: %s[%d]: %w", field, i, err)
		}
		if j, dup := seen[n]; dup {
			return nil, fmt.Errorf("server: %s[%d]: name %q already declared at %s[%d]", field, i, n, field, j)
		}
		seen[n] = i
		names[i] = n
	}
	return names, nil
}

func (s *Server) handleGrid(w http.ResponseWriter, r *http.Request) {
	s.met.gridRequests.Add(1)
	var req gridRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Schemes) == 0 {
		for _, n := range core.SchemeNames("") {
			req.Schemes = append(req.Schemes, registry.Decl{Name: n})
		}
	}
	if len(req.Benchmarks) == 0 {
		for _, n := range workload.MiBenchOrder {
			req.Benchmarks = append(req.Benchmarks, registry.Decl{Name: n})
		}
	}
	if cells := len(req.Schemes) * len(req.Benchmarks); cells > s.cfg.MaxCells {
		s.fail(w, http.StatusBadRequest,
			fmt.Errorf("server: grid of %d cells exceeds the limit of %d", cells, s.cfg.MaxCells))
		return
	}
	schemeNames, err := namesByDecl("schemes", req.Schemes, func(d registry.Decl) (string, error) {
		sc, err := registry.ResolveScheme(d)
		return sc.Name, err
	})
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	benchNames, err := namesByDecl("benchmarks", req.Benchmarks, func(d registry.Decl) (string, error) {
		spec, _, werr := registry.ResolveWorkload(d)
		return spec.Name, werr
	})
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	cfg, err := s.simConfig(req.Config)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel, ok := s.acquire(w, r)
	if !ok {
		return
	}
	defer cancel()

	started := now()
	grid, err := s.cfg.Store.GridDecls(ctx, cfg, req.Schemes, req.Benchmarks)
	if err != nil && grid == nil {
		s.fail(w, statusFor(ctx.Err(), err), err)
		return
	}
	out := make(map[string]map[string]resultJSON, len(grid))
	for _, b := range benchNames {
		row := make(map[string]resultJSON, len(grid[b]))
		for _, sc := range schemeNames {
			cell, err := toResultJSON(grid[b][sc], req.IncludePerSet)
			if err != nil {
				s.fail(w, http.StatusInternalServerError, err)
				return
			}
			row[sc] = cell
		}
		out[b] = row
	}
	s.reply(w, gridResponse{
		Schemes:    schemeNames,
		Benchmarks: benchNames,
		ElapsedNs:  now().Sub(started).Nanoseconds(),
		Grid:       out,
		Store:      s.cfg.Store.Counters(),
	})
}

type schemeJSON struct {
	Name        string        `json:"name"`
	Kind        string        `json:"kind"`
	Description string        `json:"description"`
	Decl        registry.Decl `json:"decl"`
}

// handleSchemes serves the full composition catalog: the default roster
// (with the canonical declaration behind each name), every registered
// scheme kind with its parameter schema, and every workload kind — what
// a client needs to author inline compositions or roster files.
func (s *Server) handleSchemes(w http.ResponseWriter, _ *http.Request) {
	schemes := core.Schemes()
	out := make([]schemeJSON, len(schemes))
	for i, sc := range schemes {
		out[i] = schemeJSON{Name: sc.Name, Kind: string(sc.Kind), Description: sc.Description, Decl: sc.Decl}
	}
	s.reply(w, struct {
		Schemes       []schemeJSON                `json:"schemes"`
		Kinds         []registry.SchemeKindInfo   `json:"kinds"`
		WorkloadKinds []registry.WorkloadKindInfo `json:"workload_kinds"`
	}{out, registry.SchemeKinds(), registry.WorkloadKinds()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.reply(w, struct {
		Status  string `json:"status"`
		Version string `json:"version"`
	}{"ok", s.cfg.Store.Version()})
}

// acquire carves the request's context (timeout-bounded) and takes a
// worker slot.  When every worker is busy the request joins a bounded
// wait queue; past MaxQueueDepth the server sheds immediately with
// 503 + Retry-After rather than letting latency (and memory) grow
// unboundedly toward the timeout — backpressure the caller can act on.
func (s *Server) acquire(w http.ResponseWriter, r *http.Request) (ctx context.Context, cancel context.CancelFunc, ok bool) {
	ctx, cancel = context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	select {
	case s.sem <- struct{}{}:
	default:
		if q := s.queued.Add(1); q > int64(s.cfg.MaxQueueDepth) {
			s.queued.Add(-1)
			s.met.queueSheds.Add(1)
			cancel()
			s.fail(w, http.StatusServiceUnavailable,
				fmt.Errorf("server: worker queue full (%d waiting)", s.cfg.MaxQueueDepth))
			return nil, nil, false
		}
		select {
		case s.sem <- struct{}{}:
			s.queued.Add(-1)
		case <-ctx.Done():
			s.queued.Add(-1)
			cancel()
			s.fail(w, http.StatusServiceUnavailable, errors.New("server: no worker available"))
			return nil, nil, false
		}
	}
	inner := cancel
	return ctx, func() {
		<-s.sem
		inner()
	}, true
}

// decode reads a size-capped JSON body; on failure the request has been
// answered.  The body is read in full so the size cap applies to what
// the client sent, not just to what the decoder consumed.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.fail(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("server: request body exceeds %d bytes", s.cfg.MaxBodyBytes))
		} else {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("server: read request: %w", err))
		}
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("server: decode request: %w", err))
		return false
	}
	return true
}

// statusFor maps a simulation error to an HTTP status.
func statusFor(ctxErr, err error) int {
	switch {
	case errors.Is(ctxErr, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case ctxErr != nil:
		return http.StatusServiceUnavailable // client went away or server draining
	case strings.Contains(err.Error(), "unknown"):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// reply writes v as canonical JSON.
func (s *Server) reply(w http.ResponseWriter, v any) {
	data, err := report.CanonicalJSONIndent(v, "  ")
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(data, '\n'))
}

// fail writes a canonical JSON error body.  Every 503 carries a
// Retry-After so clients (and forwarding peers) know overload and drain
// are retryable conditions with a suggested pause.
func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	s.met.errors.Add(1)
	if status == http.StatusServiceUnavailable && w.Header().Get("Retry-After") == "" {
		w.Header().Set("Retry-After", "1")
	}
	data, encErr := report.CanonicalJSON(struct {
		Error string `json:"error"`
	}{err.Error()})
	if encErr != nil {
		http.Error(w, err.Error(), status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(data, '\n'))
}
