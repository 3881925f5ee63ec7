// Command compare runs a set of schemes across a set of benchmarks and
// prints the miss-rate matrix plus per-benchmark reductions against a
// baseline — the free-form counterpart of cmd/experiments' fixed figures.
//
// Usage:
//
//	compare -schemes baseline,xor,column_associative -benches fft,sha
//	compare -suite mibench -schemes baseline,adaptive
//	compare -suite spec2006 -schemes baseline,xor -metric amat
//	compare -roster examples/rosters/adaptive.json
//
// A -roster file declares the whole sweep — schemes and benchmarks as
// registry declarations (catalog names or kind+params compositions, see
// examples/rosters/) — so new scenario families need a config file, not
// a rebuild.  The first declared scheme is the reduction baseline.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"cacheuniformity/internal/cli"
	"cacheuniformity/internal/core"
	"cacheuniformity/internal/registry"
	"cacheuniformity/internal/report"
	"cacheuniformity/internal/resultstore"
	"cacheuniformity/internal/stats"
	"cacheuniformity/internal/workload"
)

func main() {
	schemesFlag := flag.String("schemes", "baseline,xor,odd_multiplier,column_associative",
		"comma-separated scheme names (first is the reduction baseline)")
	benchesFlag := flag.String("benches", "", "comma-separated benchmark names")
	rosterFlag := flag.String("roster", "", "declarative roster file (JSON); overrides -schemes/-benches/-suite")
	suite := flag.String("suite", "", "benchmark suite: mibench or spec2006 (overrides -benches)")
	length := flag.Int("len", 300_000, "trace length per benchmark")
	seed := flag.Uint64("seed", 0, "workload seed (0 = paper default)")
	metric := flag.String("metric", "missrate", "metric: missrate, amat, kurtosis, skewness")
	parallel := flag.Int("parallel", 0, "max concurrent benchmark workers in the fan-out grid (0 = GOMAXPROCS); peak memory grows with this, not with -len")
	cacheDir := flag.String("cache", "", "result-store directory: reuse previously simulated cells and persist new ones (incremental regeneration)")
	csv := flag.Bool("csv", false, "emit CSV")
	compileTraces := flag.Bool("compile-traces", false, "compile each benchmark's access trace once and replay the cached artifact for every scheme (persisted under -cache when set)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at the end of the run")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = none); cells finished before the deadline are still printed, unfinished ones show NaN")
	flag.Parse()

	ctx, cancel := cli.RunContext(*timeout)
	defer cancel()

	stopProfiles, err := cli.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	defer stopProfiles()

	var (
		roster        registry.Roster
		rosterSchemes []core.Scheme
		rosterBenches []workload.Spec
		schemes       []string
		benches       []string
	)
	if *rosterFlag != "" {
		var err error
		roster, rosterSchemes, rosterBenches, err = cli.LoadRoster(*rosterFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			os.Exit(2)
		}
		for _, s := range rosterSchemes {
			schemes = append(schemes, s.Name)
		}
		for _, b := range rosterBenches {
			benches = append(benches, b.Name)
		}
	} else {
		schemes = splitList(*schemesFlag)
		switch {
		case *suite != "":
			benches = workload.Names(workload.Suite(*suite))
			if len(benches) == 0 {
				fmt.Fprintf(os.Stderr, "compare: unknown suite %q\n", *suite)
				os.Exit(2)
			}
		case *benchesFlag != "":
			benches = splitList(*benchesFlag)
		default:
			benches = workload.MiBenchOrder
		}
	}
	if len(schemes) < 2 {
		fmt.Fprintln(os.Stderr, "compare: need at least a baseline and one scheme")
		os.Exit(2)
	}

	cfg := core.Default()
	cfg.TraceLength = *length
	cfg.Parallelism = *parallel
	if *seed != 0 {
		cfg.Seed = *seed
	}
	var store *resultstore.Store
	if *cacheDir != "" {
		var err error
		store, err = resultstore.Open(resultstore.Options{Dir: *cacheDir, CompileTraces: *compileTraces})
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
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

	// On cancellation (^C or -timeout) the grid still returns the partial
	// map: finished cells carry results, unreached ones the context error.
	var (
		grid    map[string]map[string]core.Result
		gridErr error
	)
	if *rosterFlag != "" {
		grid, gridErr = cli.RosterGrid(ctx, cfg, store, roster, rosterSchemes, rosterBenches)
	} else {
		grid, gridErr = core.Grid(ctx, cfg, schemes, benches)
	}
	if grid == nil {
		fmt.Fprintln(os.Stderr, "compare:", gridErr)
		os.Exit(1)
	}

	pick := func(r core.Result) float64 {
		switch *metric {
		case "missrate":
			return r.MissRate
		case "amat":
			return r.AMAT
		case "kurtosis":
			return r.MissMoments.Kurtosis
		case "skewness":
			return r.MissMoments.Skewness
		default:
			fmt.Fprintf(os.Stderr, "compare: unknown metric %q\n", *metric)
			os.Exit(2)
			return 0
		}
	}

	// Partial results are first-class: a failed or unreached cell prints as
	// NaN and its error goes to stderr, while every finished cell is
	// reported normally.
	failed := 0
	raw := report.NewTable(fmt.Sprintf("%s by scheme", *metric), "benchmark", schemes)
	red := report.NewTable(fmt.Sprintf("%%reduction in %s vs %s", *metric, schemes[0]), "benchmark", schemes[1:])
	for _, b := range benches {
		row := grid[b]
		vals := make([]float64, len(schemes))
		for i, s := range schemes {
			if row[s].Err != nil {
				fmt.Fprintf(os.Stderr, "compare: %s/%s: %v\n", b, s, row[s].Err)
				failed++
				vals[i] = math.NaN()
				continue
			}
			vals[i] = pick(row[s])
		}
		raw.MustAddRow(b, vals)
		reds := make([]float64, len(schemes)-1)
		for i := range schemes[1:] {
			reds[i] = stats.PercentReduction(vals[0], vals[i+1])
		}
		red.MustAddRow(b, reds)
	}
	red.AddAverageRow("Average")

	write := func(t *report.Table) {
		var err error
		if *csv {
			err = t.WriteCSV(os.Stdout)
		} else {
			err = t.WriteText(os.Stdout)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			os.Exit(1)
		}
	}
	write(raw)
	fmt.Println()
	write(red)
	if gridErr != nil {
		fmt.Fprintln(os.Stderr, "compare: run stopped early:", gridErr)
		os.Exit(130)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "compare: %d cell(s) failed\n", failed)
		os.Exit(1)
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}
