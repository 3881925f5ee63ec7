package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/core"
	"cacheuniformity/internal/registry"
	"cacheuniformity/internal/report"
	"cacheuniformity/internal/testutil"
	"cacheuniformity/internal/trace"
	"cacheuniformity/internal/workload"
)

var smtFigures = map[string]func(context.Context, core.Config) (*report.Table, error){
	"fig13": Figure13,
	"fig14": Figure14,
}

// TestSMTFiguresParallelismInvariant: the mixes replay concurrently, yet
// the tables are byte-identical at every worker count.
func TestSMTFiguresParallelismInvariant(t *testing.T) {
	for name, run := range smtFigures {
		t.Run(name, func(t *testing.T) {
			var want string
			for _, par := range []int{1, 3} {
				cfg := fastCfg()
				cfg.TraceLength = 10_000
				cfg.Parallelism = par
				tbl, err := run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				var sb strings.Builder
				if err := tbl.WriteText(&sb); err != nil {
					t.Fatal(err)
				}
				if par == 1 {
					want = sb.String()
				} else if sb.String() != want {
					t.Errorf("Parallelism %d:\n%s\nParallelism 1:\n%s", par, sb.String(), want)
				}
			}
		})
	}
}

// TestSMTFiguresCancellation: a context cancelled before or during the
// run makes both figures return its error, and every generator pump the
// mixes started is released.
func TestSMTFiguresCancellation(t *testing.T) {
	for name, run := range smtFigures {
		for _, delay := range []time.Duration{0, 20 * time.Millisecond} {
			t.Run(fmt.Sprintf("%s/after_%v", name, delay), func(t *testing.T) {
				defer testutil.CheckLeaks(t)
				cfg := fastCfg()
				cfg.TraceLength = 5_000_000 // far longer than the delay
				cfg.Parallelism = 3
				ctx, cancel := context.WithCancel(context.Background())
				if delay == 0 {
					cancel()
				} else {
					timer := time.AfterFunc(delay, cancel)
					defer timer.Stop()
				}
				defer cancel()
				tbl, err := run(ctx, cfg)
				if !errors.Is(err, context.Canceled) || tbl != nil {
					t.Fatalf("got table %v, error %v; want the context's error", tbl != nil, err)
				}
			})
		}
	}
}

// TestTabulateFirstErrorInRosterOrder: when several cells of a grid row
// fail, the table's error names the first in (row, roster) order whatever
// the worker count; repeated runs catch map-order dependence.
func TestTabulateFirstErrorInRosterOrder(t *testing.T) {
	ok := func(l addr.Layout, _ trace.StreamFunc) (cache.Model, error) {
		return cache.New(cache.Config{Layout: l, Ways: 1, WriteAllocate: true})
	}
	failing := func(name string) core.Scheme {
		return core.Scheme{Name: name, AMAT: registry.AMATSimple,
			Build: func(addr.Layout, trace.StreamFunc) (cache.Model, error) {
				return nil, errors.New("no model for " + name)
			}}
	}
	schemes := []core.Scheme{{Name: "baseline", AMAT: registry.AMATSimple, Build: ok}, failing("x"), failing("y")}
	labels := []string{"fft", "crc", "sha", "qsort", "susan"}
	benches := make([]workload.Spec, len(labels))
	for i, name := range labels {
		spec, err := workload.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		benches[i] = spec
	}
	const want = "fft/x: core: build x: no model for x"
	for _, par := range []int{1, 2, 5} {
		for rep := 0; rep < 20; rep++ {
			cfg := core.Config{TraceLength: 2_000, Parallelism: par}
			grid, err := core.GridOf(context.Background(), cfg, schemes, benches)
			if err != nil {
				t.Fatal(err)
			}
			_, err = tabulate("t", "benchmark", labels, grid, "baseline", []string{"x", "y"}, core.MissReductionVsBaseline)
			if err == nil || err.Error() != want {
				t.Fatalf("Parallelism %d, run %d: error %v, want %q", par, rep, err, want)
			}
		}
	}
}

// TestMixStreamsMatchRoundRobin: a thread mix's interleave spec at k·TL
// yields, access for access, the k benchmarks' streams of TL accesses at
// seeds seed+i interleaved round-robin — the stream Figures 13 and 14
// are defined on.
func TestMixStreamsMatchRoundRobin(t *testing.T) {
	ctx := context.Background()
	seed := core.Default().Seed
	seen := map[string]bool{}
	for _, mix := range append(append([][]string(nil), ThreadMixes13...), ThreadMixes14...) {
		label := MixLabel(mix)
		if seen[label] {
			continue
		}
		seen[label] = true
		parts := make([]workload.Spec, len(mix))
		for i, name := range mix {
			spec, err := workload.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			parts[i] = spec
		}
		mixSpec, err := workload.NewInterleaveSpec(label, parts)
		if err != nil {
			t.Fatal(err)
		}
		for _, tl := range []int{20_000, 1_001} {
			n := len(mix) * tl
			rs := make([]trace.BatchReader, len(parts))
			for i, p := range parts {
				rs[i] = p.StreamCtx(ctx, seed+uint64(i), tl)
			}
			want, err := trace.CollectBatch(trace.RoundRobinBatch(rs...), n+1)
			if err != nil {
				t.Fatal(err)
			}
			got, err := trace.CollectBatch(mixSpec.StreamCtx(ctx, seed, n), n+1)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != n || len(want) != n {
				t.Fatalf("%s at TL %d: %d accesses, round-robin %d, want %d", label, tl, len(got), len(want), n)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s at TL %d: access %d is %+v, round-robin gives %+v", label, tl, i, got[i], want[i])
				}
			}
		}
	}
	if len(seen) != 11 {
		t.Errorf("%d distinct mixes, want 11", len(seen))
	}
}
