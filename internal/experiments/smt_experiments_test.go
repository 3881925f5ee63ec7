package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/core"
	"cacheuniformity/internal/report"
	"cacheuniformity/internal/testutil"
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

// TestReplayMixesFirstErrorByIndex: with several failing mixes, the error
// returned is the lowest-indexed mix's whatever the worker count.
func TestReplayMixesFirstErrorByIndex(t *testing.T) {
	mixes := [][]string{{"fft"}, {"crc"}, {"sha"}, {"qsort"}, {"susan"}}
	build := func(mix []string) (cache.Model, cache.Model, error) {
		if mix[0] == "crc" || mix[0] == "susan" {
			return nil, nil, errors.New("no models for " + mix[0])
		}
		m, err := cache.New(cache.Config{Layout: core.Default().Layout, Ways: 1, WriteAllocate: true})
		if err != nil {
			return nil, nil, err
		}
		n, err := cache.New(cache.Config{Layout: core.Default().Layout, Ways: 2, WriteAllocate: true})
		return m, n, err
	}
	for _, par := range []int{1, 2, 5} {
		cfg := core.Config{TraceLength: 2_000, Parallelism: par}
		_, err := replayMixes(context.Background(), cfg, mixes, build)
		if err == nil || err.Error() != "no models for crc" {
			t.Errorf("Parallelism %d: error %v, want the crc mix's", par, err)
		}
	}
}
