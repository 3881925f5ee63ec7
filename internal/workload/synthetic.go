package workload

import (
	"context"
	"fmt"
	"math"
	"strings"

	"cacheuniformity/internal/trace"
)

// Synthetic is the suite of parametrised workloads built at run time from
// declarations (roster files, simd request bodies) rather than registered
// kernels — the workload side of the declarative registry.
const Synthetic Suite = "synthetic"

// ZipfConfig parametrises a skewed-popularity workload: accesses drawn
// from a Zipf(s) law over a fixed block population, the canonical stressor
// for per-set uniformity (hot blocks concentrate traffic on their sets).
// Zero fields take the listed defaults.
type ZipfConfig struct {
	// Blocks is the distinct-block population (default 4096).
	Blocks int
	// BlockBytes is the spacing between consecutive blocks (default 32,
	// the paper's line size, so the population is contiguous).
	BlockBytes int
	// Skew is the Zipf exponent s (default 1.2; 0 is uniform).
	Skew float64
	// WriteFrac is the probability an access is a store (default 0.25).
	WriteFrac float64
}

// NewZipfSpec builds a synthetic Zipf workload.  Like every kernel, the
// result is a deterministic function of (seed, length); the popularity
// ranking scatters over the block population through a seed-fixed
// permutation, so distinct seeds hammer distinct sets.
func NewZipfSpec(name string, cfg ZipfConfig) (Spec, error) {
	if cfg.Blocks == 0 {
		cfg.Blocks = 4096
	}
	if cfg.BlockBytes == 0 {
		cfg.BlockBytes = 32
	}
	if cfg.Skew == 0 {
		cfg.Skew = 1.2
	}
	if cfg.Blocks < 2 || cfg.Blocks > 1<<24 {
		return Spec{}, fmt.Errorf("workload: zipf blocks %d out of range (2..%d)", cfg.Blocks, 1<<24)
	}
	if cfg.BlockBytes < 1 || cfg.BlockBytes > 1<<20 {
		return Spec{}, fmt.Errorf("workload: zipf block_bytes %d out of range (1..%d)", cfg.BlockBytes, 1<<20)
	}
	if math.IsNaN(cfg.Skew) || cfg.Skew < 0 || cfg.Skew > 8 {
		return Spec{}, fmt.Errorf("workload: zipf skew %v out of range (0..8)", cfg.Skew)
	}
	if math.IsNaN(cfg.WriteFrac) || cfg.WriteFrac < 0 || cfg.WriteFrac > 1 {
		return Spec{}, fmt.Errorf("workload: zipf write_frac %v out of range (0..1)", cfg.WriteFrac)
	}
	blocks, bb, skew, wf := cfg.Blocks, cfg.BlockBytes, cfg.Skew, cfg.WriteFrac
	run := func(g *gen) {
		for !g.full() {
			g.zipfTable(DataBase, blocks, bb, 1<<30, skew, wf)
		}
	}
	s := Spec{
		Name:  name,
		Suite: Synthetic,
		Description: fmt.Sprintf("Zipf(s=%g) over %d blocks × %d B, %g%% stores",
			skew, blocks, bb, wf*100),
		run: run,
	}
	s.Generate = func(seed uint64, n int) trace.Trace {
		return collectStream(seed, n, run)
	}
	return s, nil
}

// NewInterleaveSpec builds a workload that round-robins the given parts
// one access at a time, tagging part i's accesses with thread id i — the
// multi-programmed SMT mixes of Figures 13 and 14 and of internal/sim's
// thread runs, composable from declarations.
// Part i streams with seed+i so homogeneous mixes do not run in lockstep;
// the total length is divided evenly with the remainder going to the
// earliest parts.
func NewInterleaveSpec(name string, parts []Spec) (Spec, error) {
	if len(parts) < 2 || len(parts) > 16 {
		return Spec{}, fmt.Errorf("workload: interleave needs 2..16 parts, got %d", len(parts))
	}
	names := make([]string, len(parts))
	for i, p := range parts {
		if p.Name == "" {
			return Spec{}, fmt.Errorf("workload: interleave part %d is empty", i)
		}
		names[i] = p.Name
	}
	ps := append([]Spec(nil), parts...)
	mk := func(ctx context.Context, seed uint64, n int) trace.BatchReader {
		readers := make([]trace.BatchReader, len(ps))
		per, rem := n/len(ps), n%len(ps)
		for i, p := range ps {
			ni := per
			if i < rem {
				ni++
			}
			readers[i] = p.StreamCtx(ctx, seed+uint64(i), ni)
		}
		return trace.RoundRobinBatch(readers...)
	}
	return NewSpec(name, Synthetic,
		"interleave of "+strings.Join(names, "+"), mk), nil
}
