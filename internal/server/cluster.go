// Cluster mode: ownership, forwarding, peer-fill, and the degradation
// ladder.  With Config.Cluster set, every /v1/cell request is keyed and
// routed: cells this node owns (rendezvous hashing over the peer list)
// are computed locally as always; cells another node owns are forwarded
// to the owner, raced against the next-ranked peer when the owner is
// slow, and peer-filled into the local store tiers on response.  Every
// failure on that path — breakers open, retries exhausted, a corrupt
// body — degrades to local computation: the fleet can lose members or
// serve garbage and the answer is still right, just slower.
//
// Grid requests stay local by design: a grid is a batch figure
// regeneration, not a latency-sensitive lookup, and the generate-once
// fan-out engine already amortises it better than cell-by-cell
// forwarding would.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"cacheuniformity/internal/core"
	"cacheuniformity/internal/report"
	"cacheuniformity/internal/resultstore"
)

// OriginPeer marks a cell served by forwarding to its owning node (and
// peer-filled into the local tiers on the way through).
const OriginPeer resultstore.Origin = "peer"

// StartDrain flips the server into draining: /v1/readyz answers 503 so
// load balancers and peers deregister, and forwarded requests are shed
// with 503 + Retry-After so the forwarding node recomputes elsewhere.
// Requests already in flight are unaffected; cmd/simd calls this before
// http.Server.Shutdown.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// handleReadyz is the readiness probe: unlike /v1/healthz (liveness —
// "the process is up"), readiness means "send me traffic": false while
// the startup peer probe is still running and false again once a drain
// begins.  Not-ready answers carry Retry-After and do not count toward
// the error metric — a deregistered node answering its LB is healthy
// behaviour, not a failure.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		s.notReady(w, "draining")
		return
	}
	if cl := s.cfg.Cluster; cl != nil && !cl.Ready() {
		s.notReady(w, "probing peers")
		return
	}
	s.reply(w, struct {
		Status string `json:"status"`
	}{"ready"})
}

// notReady writes a 503 readiness answer with Retry-After, bypassing
// the error counter.
func (s *Server) notReady(w http.ResponseWriter, status string) {
	// Retry-After goes on BEFORE either write path: the degradation
	// ladder (peers, load balancers) keys on it, so even the marshal
	// failure fallback must carry it.
	w.Header().Set("Retry-After", "1")
	data, err := report.CanonicalJSON(struct {
		Status string `json:"status"`
	}{status})
	if err != nil {
		http.Error(w, status, http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	_, _ = w.Write(append(data, '\n'))
}

// fwdConfig spells out every override so the owner's answer depends
// only on the request, never on the owner's own base configuration.
func fwdConfig(cfg core.Config) *simOverrides {
	tl, seed, mp := cfg.TraceLength, cfg.Seed, cfg.MissPenalty
	bb, sets, bits := cfg.Layout.BlockBytes(), cfg.Layout.Sets(), cfg.Layout.AddressBits
	return &simOverrides{
		TraceLength: &tl,
		Seed:        &seed,
		MissPenalty: &mp,
		BlockBytes:  &bb,
		Sets:        &sets,
		AddressBits: &bits,
	}
}

// peerCellReply is the subset of a peer's cellResponse the forwarder
// validates and peer-fills from.  Unknown fields are tolerated (a newer
// peer may say more); the key, names, and result shape are not.
type peerCellReply struct {
	Key    string `json:"key"`
	Origin string `json:"origin"`
	Result struct {
		core.Result
		Err    string          `json:"Err"`
		PerSet json.RawMessage `json:"PerSet"`
	} `json:"result"`
}

// serveForwarded tries to answer a non-owned cell from the fleet:
// local tiers first (a peer-filled cell needs no network), then a
// hedged fetch from the owner.  It reports whether the request was
// answered; false means the caller must compute locally — the bottom
// rung of the degradation ladder.
func (s *Server) serveForwarded(w http.ResponseWriter, r *http.Request, req *cellRequest, id *cellID) bool {
	cl := s.cfg.Cluster

	if served, ok := s.cfg.Store.PeekCell(id.key); ok {
		s.replyCell(w, req, id, served, 0)
		return true
	}

	fwd := cellRequest{
		Scheme:    id.Scheme.Decl,
		Benchmark: id.BenchDecl,
		Config:    fwdConfig(id.cfg),
		// Always ask for the raw per-set distributions: the peer-filled
		// Result must equal a locally computed one, or a later
		// include_per_set request would be served a truncated cell.
		IncludePerSet: true,
	}
	body, err := json.Marshal(fwd)
	if err != nil {
		return false
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	started := now()
	data, peer, err := cl.FetchCell(ctx, id.key, body)
	if err != nil {
		return false
	}

	res, err := decodePeerCell(data, id.key, id.Scheme.Name, id.Spec.Name)
	if err != nil {
		// The peer answered 200 with a body that does not hold this cell:
		// corruption, a version skew, a bug.  Treat the peer as failed and
		// compute locally; a wrong answer must never leave this node.
		cl.RecordBadBody(peer)
		return false
	}
	if err := s.cfg.Store.Fill(id.key, id.cfg, res); err != nil {
		return false
	}
	cl.RecordPeerFill(peer)
	s.met.forwardServed.Add(1)
	// The fill's memory entry gets its rendering on its first local hit.
	s.replyCell(w, req, id, resultstore.Served{Result: res, Origin: OriginPeer}, now().Sub(started).Nanoseconds())
	return true
}

// decodePeerCell validates a peer's /v1/cell body against the identity
// the forwarder derived itself: the key, the resolved names, and a
// successful result.  Anything else is an error — the caller falls back
// to local computation.
func decodePeerCell(data []byte, key, schemeName, benchName string) (core.Result, error) {
	var pr peerCellReply
	if err := json.Unmarshal(data, &pr); err != nil {
		return core.Result{}, fmt.Errorf("server: peer body: %w", err)
	}
	if pr.Key != key {
		return core.Result{}, fmt.Errorf("server: peer answered key %.16s…, want %.16s…", pr.Key, key)
	}
	if pr.Result.Err != "" {
		return core.Result{}, fmt.Errorf("server: peer result carries error %q", pr.Result.Err)
	}
	res := pr.Result.Result
	if res.Scheme != schemeName || res.Benchmark != benchName {
		return core.Result{}, fmt.Errorf("server: peer result names %s/%s, want %s/%s",
			res.Scheme, res.Benchmark, schemeName, benchName)
	}
	if len(pr.Result.PerSet) > 0 {
		ps, err := resultstore.ParsePerSet(pr.Result.PerSet)
		if err != nil {
			return core.Result{}, fmt.Errorf("server: peer PerSet: %w", err)
		}
		res.PerSet = ps
	}
	return res, nil
}

// errDrainingShed sheds a forwarded request during drain.
var errDrainingShed = errors.New("server: draining, forward elsewhere")
