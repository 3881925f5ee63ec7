package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/faultinject"
	"cacheuniformity/internal/registry"
	"cacheuniformity/internal/testutil"
	"cacheuniformity/internal/trace"
	"cacheuniformity/internal/workload"
)

// panickyScheme builds the baseline organisation but wraps its model to
// panic on the nth access, simulating a bug inside a scheme's simulation
// code.
func panickyScheme(after int) Scheme {
	return Scheme{
		Name: "panicky", Kind: registry.FamilyReference,
		Description: "baseline model that panics mid-replay (fault injection)",
		Build: func(l addr.Layout, _ trace.StreamFunc) (cache.Model, error) {
			m, err := cache.New(cache.Config{Layout: l, Ways: 1, WriteAllocate: true})
			if err != nil {
				return nil, err
			}
			return faultinject.PanicModel(m, after), nil
		},
	}
}

// faultyBench is a benchmark whose stream errors halfway through.
func faultyBench(t *testing.T) workload.Spec {
	t.Helper()
	base, err := workload.Lookup("sha")
	if err != nil {
		t.Fatal(err)
	}
	return workload.NewSpec("faulty_stream", workload.MiBench,
		"sha with an injected mid-stream read error",
		func(ctx context.Context, seed uint64, n int) trace.BatchReader {
			return faultinject.ErrAfter(base.StreamCtx(ctx, seed, n), n/2)
		})
}

// TestGridFaultInjectionPoisonsExactlyTheInjectedCells is the acceptance
// test of the robustness contract: one faulty scheme and one faulty
// benchmark in a 2x2 grid must yield errors in exactly the three cells
// they touch, a valid result in the untouched cell, and no goroutines
// left behind — through the grid engine and the per-cell oracle.
func TestGridFaultInjectionPoisonsExactlyTheInjectedCells(t *testing.T) {
	healthy, err := SchemeByName("baseline")
	if err != nil {
		t.Fatal(err)
	}
	goodBench, err := workload.Lookup("fft")
	if err != nil {
		t.Fatal(err)
	}
	schemes := []Scheme{healthy, panickyScheme(1000)}
	benches := []workload.Spec{goodBench, faultyBench(t)}

	for _, percell := range []bool{false, true} {
		name := "generate-once"
		if percell {
			name = "per-cell"
		}
		t.Run(name, func(t *testing.T) {
			defer testutil.CheckLeaks(t)
			cfg := Default()
			cfg.TraceLength = 20_000

			run := GridOf
			if percell {
				run = gridPerCell
			}
			grid, err := run(context.Background(), cfg, schemes, benches)
			if err != nil {
				t.Fatalf("grid: %v", err)
			}

			ok := grid["fft"]["baseline"]
			if ok.Err != nil {
				t.Errorf("healthy cell failed: %v", ok.Err)
			}
			if ok.Counters.Accesses != 20_000 || ok.MissRate <= 0 {
				t.Errorf("healthy cell result implausible: %+v accesses, missrate %f",
					ok.Counters.Accesses, ok.MissRate)
			}

			if e := grid["fft"]["panicky"].Err; e == nil {
				t.Error("panicking scheme's cell has no error")
			} else if !errors.Is(e, faultinject.ErrInjected) {
				t.Errorf("panicky/fft error %v does not wrap the injected fault", e)
			}

			for _, s := range []string{"baseline", "panicky"} {
				e := grid["faulty_stream"][s].Err
				if e == nil {
					t.Errorf("%s/faulty_stream has no error", s)
					continue
				}
				if !errors.Is(e, faultinject.ErrInjected) {
					t.Errorf("%s/faulty_stream error = %v, want wrapped ErrInjected", s, e)
				}
			}
		})
	}
}

// TestGridPerCellPanicBecomesPanicError pins the error type of runCell,
// the single-cell path RunOne and the per-cell oracle share: a model panic
// surfaces as *PanicError with a captured stack, addressed to the failing
// cell.
func TestGridPerCellPanicBecomesPanicError(t *testing.T) {
	defer testutil.CheckLeaks(t)
	goodBench, err := workload.Lookup("fft")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default()
	cfg.TraceLength = 5_000
	grid, err := gridPerCell(context.Background(), cfg,
		[]Scheme{panickyScheme(100)}, []workload.Spec{goodBench})
	if err != nil {
		t.Fatalf("gridPerCell: %v", err)
	}
	var pe *PanicError
	if e := grid["fft"]["panicky"].Err; !errors.As(e, &pe) {
		t.Fatalf("cell error = %v (%T), want *PanicError", e, e)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError lost the panic stack")
	}
}

// slowBench wraps a real benchmark so every batch takes at least d,
// giving cancellation a wide window to land mid-run.
func slowBench(t *testing.T, d time.Duration) workload.Spec {
	t.Helper()
	base, err := workload.Lookup("fft")
	if err != nil {
		t.Fatal(err)
	}
	return workload.NewSpec("slow_fft", workload.MiBench, "fft with per-batch delay",
		func(ctx context.Context, seed uint64, n int) trace.BatchReader {
			return faultinject.SlowEvery(base.StreamCtx(ctx, seed, n), 1, d)
		})
}

// TestGridCancellationReturnsPartialResultsAndLeaksNothing cancels a
// running grid and checks the two halves of the contract: the returned
// map still has every cell (finished ones valid, unreached ones carrying
// the context error), and no pump or worker goroutine survives.
func TestGridCancellationReturnsPartialResultsAndLeaksNothing(t *testing.T) {
	for _, percell := range []bool{false, true} {
		name := "generate-once"
		if percell {
			name = "per-cell"
		}
		t.Run(name, func(t *testing.T) {
			defer testutil.CheckLeaks(t)
			baseline, err := SchemeByName("baseline")
			if err != nil {
				t.Fatal(err)
			}
			bench := slowBench(t, 2*time.Millisecond)
			cfg := Default()
			cfg.TraceLength = 200 * trace.DefaultBatch // ~400ms of injected delay
			cfg.Parallelism = 1
			run := GridOf
			if percell {
				run = gridPerCell
			}

			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(10 * time.Millisecond)
				cancel()
			}()
			grid, gridErr := run(ctx, cfg, []Scheme{baseline}, []workload.Spec{bench})
			cancel()

			if !errors.Is(gridErr, context.Canceled) {
				t.Errorf("grid error = %v, want context.Canceled", gridErr)
			}
			if grid == nil {
				t.Fatal("cancelled grid returned nil map instead of partial results")
			}
			cell, present := grid["slow_fft"]["baseline"]
			if !present {
				t.Fatal("cancelled grid dropped the in-flight cell")
			}
			if cell.Err == nil {
				t.Error("cell interrupted mid-replay reported success")
			} else if !errors.Is(cell.Err, context.Canceled) {
				t.Errorf("cell error = %v, want wrapped context.Canceled", cell.Err)
			}
		})
	}
}

// TestRunOnePreCancelledContext checks the fast path: a context that is
// already dead must fail the run before any simulation work starts.
func TestRunOnePreCancelledContext(t *testing.T) {
	defer testutil.CheckLeaks(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunOne(ctx, Default(), "baseline", "fft")
	if err == nil && res.Err == nil {
		t.Fatal("pre-cancelled RunOne reported success")
	}
	for _, e := range []error{err, res.Err} {
		if e != nil && !errors.Is(e, context.Canceled) {
			t.Errorf("error = %v, want context.Canceled", e)
		}
	}
}

// TestGridTimeoutExpiresMidRun drives the deadline (rather than cancel)
// path end to end, as cmd/experiments' -timeout flag does.
func TestGridTimeoutExpiresMidRun(t *testing.T) {
	defer testutil.CheckLeaks(t)
	baseline, err := SchemeByName("baseline")
	if err != nil {
		t.Fatal(err)
	}
	bench := slowBench(t, 2*time.Millisecond)
	cfg := Default()
	cfg.TraceLength = 200 * trace.DefaultBatch
	cfg.Parallelism = 1

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	_, gridErr := GridOf(ctx, cfg, []Scheme{baseline}, []workload.Spec{bench})
	if !errors.Is(gridErr, context.DeadlineExceeded) {
		t.Errorf("GridOf error = %v, want context.DeadlineExceeded", gridErr)
	}
}
