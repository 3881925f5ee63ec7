// Command experiments regenerates the paper's figures (1, 4, 6-14) from
// the reproduction's simulators and prints them as text tables or CSV.
//
// Usage:
//
//	experiments                  # run every figure
//	experiments -fig 4           # one figure
//	experiments -fig 4 -csv      # CSV output for plotting
//	experiments -len 1000000     # longer traces
//	experiments -blockbytes 8    # the paper's Givargis block-size ablation
//	experiments -roster examples/rosters/temperature.json
//
// A -roster file replaces the fixed figures with a declared sweep:
// schemes and benchmarks as registry declarations (catalog names or
// kind+params compositions), evaluated as one grid and printed as a
// miss-rate matrix.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/cli"
	"cacheuniformity/internal/core"
	"cacheuniformity/internal/experiments"
	"cacheuniformity/internal/report"
	"cacheuniformity/internal/resultstore"
)

func main() {
	fig := flag.Int("fig", 0, "figure number to run (0 = all of 1, 4, 5, 6..14)")
	length := flag.Int("len", 300_000, "trace length per benchmark")
	seed := flag.Uint64("seed", 0, "workload seed (0 = paper default)")
	blockBytes := flag.Int("blockbytes", 32, "L1 block size in bytes")
	sets := flag.Int("sets", 1024, "L1 set count")
	penalty := flag.Float64("penalty", 20, "L1 miss penalty in cycles")
	parallel := flag.Int("parallel", 0, "max concurrent benchmark workers in the fan-out grid (0 = GOMAXPROCS); peak memory grows with this, not with -len")
	cacheDir := flag.String("cache", "", "result-store directory: reuse previously simulated cells and persist new ones (incremental figure regeneration)")
	csv := flag.Bool("csv", false, "emit CSV instead of text tables")
	rosterFlag := flag.String("roster", "", "run the declared scheme × benchmark roster (JSON file) instead of the figures")
	sweep := flag.String("sweep", "", "run the geometry-sensitivity sweep for this benchmark instead of the figures")
	classes := flag.String("classes", "", "print Zhang's FHS/FMS/LAS classification table for this scheme instead of the figures")
	hybrids := flag.Bool("hybrids", false, "run the adaptive-cache indexing hybrids (the paper's stated exploration) instead of the figures")
	compileTraces := flag.Bool("compile-traces", false, "compile each benchmark's access trace once and replay the cached artifact for every scheme (persisted under -cache when set)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at the end of the run")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = none); figures finished before the deadline are still printed")
	flag.Parse()

	ctx, cancel := cli.RunContext(*timeout)
	defer cancel()

	stopProfiles, err := cli.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	defer stopProfiles()

	layout, err := addr.NewLayout(*blockBytes, *sets, 32)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	cfg := core.Default()
	cfg.Layout = layout
	cfg.TraceLength = *length
	cfg.MissPenalty = *penalty
	cfg.Parallelism = *parallel
	if *seed != 0 {
		cfg.Seed = *seed
	}
	var store *resultstore.Store
	if *cacheDir != "" {
		store, err = resultstore.Open(resultstore.Options{Dir: *cacheDir, CompileTraces: *compileTraces})
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
		cfg.Memo = store
		if *compileTraces {
			// Artifacts persist under -cache/traces and outlive the run.
			cfg.Traces = store
		}
	} else if *compileTraces {
		cfg.Traces = core.NewMemTraceCache(0)
	}

	emit := func(tbl *report.Table) {
		var err error
		if *csv {
			err = tbl.WriteCSV(os.Stdout)
		} else {
			err = tbl.WriteText(os.Stdout)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	if *rosterFlag != "" {
		roster, schemes, benches, err := cli.LoadRoster(*rosterFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
		grid, gridErr := cli.RosterGrid(ctx, cfg, store, roster, schemes, benches)
		if grid == nil {
			fmt.Fprintln(os.Stderr, "experiments:", gridErr)
			os.Exit(1)
		}
		names := make([]string, len(schemes))
		for i, s := range schemes {
			names[i] = s.Name
		}
		tbl := report.NewTable(fmt.Sprintf("miss rate by scheme (%s)", *rosterFlag), "benchmark", names)
		failed := 0
		for _, b := range benches {
			vals := make([]float64, len(names))
			for i, n := range names {
				cell := grid[b.Name][n]
				if cell.Err != nil {
					fmt.Fprintf(os.Stderr, "experiments: %s/%s: %v\n", b.Name, n, cell.Err)
					failed++
					vals[i] = math.NaN()
					continue
				}
				vals[i] = cell.MissRate
			}
			tbl.MustAddRow(b.Name, vals)
		}
		emit(tbl)
		if gridErr != nil {
			fmt.Fprintln(os.Stderr, "experiments: run stopped early:", gridErr)
			os.Exit(130)
		}
		if failed > 0 {
			fmt.Fprintf(os.Stderr, "experiments: %d cell(s) failed\n", failed)
			os.Exit(1)
		}
		return
	}
	if *sweep != "" {
		tbl, err := experiments.GeometrySweep(ctx, cfg, *sweep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		emit(tbl)
		return
	}
	if *classes != "" {
		tbl, err := experiments.UniformityClasses(ctx, cfg, *classes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		emit(tbl)
		return
	}
	if *hybrids {
		tbl, err := experiments.AdaptiveHybrids(ctx, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		emit(tbl)
		return
	}

	figs := experiments.All()
	if *fig != 0 {
		f, err := experiments.ByID(*fig)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
		figs = []experiments.Figure{f}
	}
	for i, f := range figs {
		tbl, err := f.Run(ctx, cfg)
		if err != nil {
			// Figures printed before a deadline or ^C stay on stdout; the
			// interrupted one reports why the run stopped early.
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				fmt.Fprintf(os.Stderr, "experiments: figure %d: run stopped early: %v\n", f.ID, err)
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "experiments: figure %d: %v\n", f.ID, err)
			os.Exit(1)
		}
		if *csv {
			if err := tbl.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
		} else {
			if err := tbl.WriteText(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
		}
		if i < len(figs)-1 {
			fmt.Println()
		}
	}
}
