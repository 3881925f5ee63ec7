package resultstore

import (
	"compress/flate"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"cacheuniformity/internal/core"
	"cacheuniformity/internal/report"
	"cacheuniformity/internal/trace"
	"cacheuniformity/internal/workload"
)

// The compiled-trace artifact tier.
//
// A benchmark's access stream is as deterministic as its results, so the
// store can treat the *trace itself* as a content-addressed artifact:
// compiled once with the segmented codec (trace.Compile), persisted
// DEFLATE-compressed next to the manifests, and decoded into a bounded
// in-memory tier for replay — a core.MemTraceCache whose fill reads the
// disk artifact, or compiles when there is none.  With
// Options.CompileTraces set, the store implements core.TraceSource and
// installs itself on every engine call it leads, so grid evaluations
// replay decoded batches instead of re-running the generator pump — and
// the fan-out engine may shard one benchmark's replay across spare
// workers.
//
// A trace artifact is keyed by what determines the stream and nothing
// else: the benchmark's canonical identity (workload.Spec.Key — the
// declaration minus its display name), the trace length, the seed, and
// the code version.  Layout and miss penalty are deliberately absent:
// they change what a cache does with the stream, not the stream.
//
// Failures anywhere in the tier — unreadable artifact, corrupt header,
// failed persist — degrade to compiling (or, above this layer, to the
// generator); they are counted, never surfaced.

// traceKeyPayload is the hashed identity of a compiled-trace artifact,
// encoded with the canonical JSON codec like the cell keys.
type traceKeyPayload struct {
	Benchmark   string `json:"benchmark"`
	TraceLength int    `json:"trace_length"`
	Seed        uint64 `json:"seed"`
	Version     string `json:"version"`
}

// TraceKey returns the content address of a benchmark's compiled trace
// under the given code version.  benchKey is the benchmark's trace-cache
// identity (workload.Spec.Key); it must be non-empty.
func TraceKey(cfg core.Config, benchKey, version string) (string, error) {
	if benchKey == "" {
		return "", fmt.Errorf("resultstore: benchmark has no trace-cache identity")
	}
	c := cfg.Canonical()
	b, err := report.CanonicalJSON(traceKeyPayload{
		Benchmark:   benchKey,
		TraceLength: c.TraceLength,
		Seed:        c.Seed,
		Version:     version,
	})
	if err != nil {
		return "", fmt.Errorf("resultstore: encode trace key: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Trace artifact filename grammar, shared with the scrub.
const (
	traceDirName = "traces"
	traceExt     = ".ctz"
)

// tracePath shards trace artifacts like manifests, under their own
// subdirectory: <dir>/traces/<key[:2]>/<key>.ctz.
func (s *Store) tracePath(key string) string {
	return filepath.Join(s.dir, traceDirName, key[:2], key+traceExt)
}

// CompiledTrace implements core.TraceSource: the decoded memory tier,
// whose fill (fillTrace) reads the disk artifact or compiles once and
// persists for the next process.  Errors follow the engines' fallback
// contract — the caller reverts to the generator — so this method never
// degrades a run, only its speed.
func (s *Store) CompiledTrace(ctx context.Context, cfg core.Config, bench workload.Spec) (*trace.Compiled, error) {
	if s.traces == nil {
		return nil, fmt.Errorf("resultstore: trace tier disabled")
	}
	return s.traces.CompiledTrace(ctx, cfg.Canonical(), bench)
}

// fillTrace is the memory tier's fill: the persisted artifact when one
// is readable, otherwise a compilation written back to disk.  The tier
// runs it once per key however many requests wait, so the counters
// below count artifacts, not requests.
func (s *Store) fillTrace(ctx context.Context, cfg core.Config, bench workload.Spec) (*trace.Compiled, error) {
	key, err := TraceKey(cfg, bench.Key, s.version)
	if err != nil {
		return nil, err
	}
	if ct := s.loadTrace(key); ct != nil {
		s.traceDiskHits.Add(1)
		return ct, nil
	}
	ct, err := bench.Compile(ctx, cfg.Seed, cfg.TraceLength, 0)
	if err != nil {
		return nil, err
	}
	s.traceCompiles.Add(1)
	if s.dir != "" {
		if perr := s.publish(artifactRef{key, tierTrace}, ct.Marshal()); perr != nil {
			s.persistErrors.Add(1)
		}
	}
	return ct, nil
}

// loadTrace reads and decompresses a persisted artifact.  A missing file
// is an ordinary miss; anything unreadable or failing validation is a
// miss counted as corrupt — the artifact is recompiled, never trusted.
// A hit bumps the artifact's AccessedAt so disk GC sees replay traffic.
func (s *Store) loadTrace(key string) *trace.Compiled {
	if s.dir == "" {
		return nil
	}
	path := s.tracePath(key)
	f, err := os.Open(path)
	if err != nil {
		if !os.IsNotExist(err) {
			s.corrupt.Add(1)
		}
		return nil
	}
	ct, err := s.loadTraceFile(f)
	_ = f.Close()
	if err != nil {
		s.corrupt.Add(1)
		return nil
	}
	s.touch(artifactRef{key, tierTrace}, path)
	return ct
}

// loadTraceFile decompresses and decodes one open trace artifact.  Split
// from loadTrace so the deep scrub can verify artifacts through the same
// decoder the read path trusts.
func (s *Store) loadTraceFile(f *os.File) (*trace.Compiled, error) {
	zr := flate.NewReader(f)
	defer zr.Close()
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	return trace.UnmarshalCompiled(raw)
}
