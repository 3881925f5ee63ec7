// Package experiments regenerates every table and figure of the paper's
// evaluation (Section IV) from the reproduction's own simulators.  Each
// FigureN function returns a report.Table whose rows/series mirror the
// paper's chart; cmd/experiments prints them and EXPERIMENTS.md records
// the paper-vs-measured comparison.
package experiments

import (
	"context"
	"fmt"

	"cacheuniformity/internal/core"
	"cacheuniformity/internal/report"
	"cacheuniformity/internal/stats"
	"cacheuniformity/internal/workload"
)

// Figure identifies one reproducible experiment.  Run honours ctx: a
// cancelled context stops the underlying grid within one batch and
// surfaces the context's error.
type Figure struct {
	ID          int
	Title       string
	Description string
	Run         func(ctx context.Context, cfg core.Config) (*report.Table, error)
}

// All returns the figure registry in paper order.
func All() []Figure {
	return []Figure{
		{1, "Figure 1: non-uniform cache accesses (FFT)",
			"per-set access distribution of the FFT benchmark on the baseline cache", Figure1},
		{4, "Figure 4: % reduction in miss rate, indexing schemes",
			"XOR, odd-multiplier, prime-modulo, Givargis, Givargis-XOR vs conventional indexing on MiBench", Figure4},
		{5, "Figure 5 (proposal): per-application indexing-scheme selection",
			"profile each benchmark, program the winning index, deploy on a fresh run", Figure5},
		{6, "Figure 6: % reduction in miss rate, programmable associativity",
			"Adaptive, B-Cache, column-associative vs direct-mapped on MiBench", Figure6},
		{7, "Figure 7: % reduction in AMAT, programmable associativity",
			"AMAT per paper Eqs. 8-9 vs direct-mapped on MiBench", Figure7},
		{8, "Figure 8: hybrid column-associative indexing (SPEC 2006)",
			"column-associative with XOR/odd-multiplier/prime-modulo primary index vs plain column-associative", Figure8},
		{9, "Figure 9: % increase in kurtosis of misses, indexing schemes",
			"distribution-shape change of per-set misses on MiBench", Figure9},
		{10, "Figure 10: % increase in skewness of misses, indexing schemes",
			"distribution-shape change of per-set misses on MiBench", Figure10},
		{11, "Figure 11: % increase in kurtosis of misses, programmable associativity",
			"adaptive and column-associative vs baseline on MiBench", Figure11},
		{12, "Figure 12: % increase in skewness of misses, programmable associativity",
			"adaptive and column-associative vs baseline on MiBench", Figure12},
		{13, "Figure 13: multiple indexing schemes in multithreaded systems",
			"% reduction in miss rate with per-thread odd multipliers on a shared L1", Figure13},
		{14, "Figure 14: adaptive partitioned scheme, multithreaded",
			"% improvement in AMAT over a statically partitioned shared L1", Figure14},
	}
}

// ByID finds a figure.
func ByID(id int) (Figure, error) {
	for _, f := range All() {
		if f.ID == id {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("experiments: no figure %d", id)
}

// Figure1 reports the per-set access distribution of FFT on the baseline
// cache: the fractions the paper quotes (sets below half the average,
// sets at ≥2× the average) plus distribution-shape statistics.
func Figure1(ctx context.Context, cfg core.Config) (*report.Table, error) {
	res, err := core.RunOne(ctx, cfg, "baseline", "fft")
	if err != nil {
		return nil, err
	}
	acc := res.PerSet.Accesses
	tbl := report.NewTable(
		"Figure 1: FFT per-set access distribution (baseline direct-mapped)",
		"metric", []string{"value"})
	tbl.MustAddRow("sets_below_half_average_pct", []float64{100 * stats.FractionBelow(acc, 0.5)})
	tbl.MustAddRow("sets_at_2x_average_pct", []float64{100 * stats.FractionAtLeast(acc, 2)})
	tbl.MustAddRow("access_kurtosis", []float64{res.AccessMoments.Kurtosis})
	tbl.MustAddRow("access_skewness", []float64{res.AccessMoments.Skewness})
	tbl.MustAddRow("access_gini", []float64{stats.Gini(acc)})
	tbl.MustAddRow("normalized_entropy", []float64{stats.NormalizedEntropy(acc)})
	tbl.MustAddRow("max_set_accesses", []float64{res.AccessMoments.Max})
	tbl.MustAddRow("mean_set_accesses", []float64{res.AccessMoments.Mean})
	tbl.MustAddRow("miss_rate", []float64{res.MissRate})
	return tbl, nil
}

// rowMetric derives each scheme's value in one grid row against the
// row's baseline cell, e.g. core.MissReductionVsBaseline.
type rowMetric func(row map[string]core.Result, baseline string) (map[string]float64, error)

// reductionTable runs a grid and tabulates a per-benchmark metric vs the
// baseline scheme.
func reductionTable(ctx context.Context, cfg core.Config, title string, schemes, benches []string, baseline string,
	metric rowMetric) (*report.Table, error) {
	grid, err := core.Grid(ctx, cfg, append([]string{baseline}, schemes...), benches)
	if err != nil {
		return nil, err
	}
	return tabulate(title, "benchmark", benches, grid, baseline, schemes, metric)
}

// tabulate lays grid rows out as a table: one row per label, in order,
// and one column per scheme holding metric against baseline.  Each row's
// cells are checked in (baseline, schemes...) order, so when several fail
// the error names the same cell on every run.
func tabulate(title, rowHeader string, labels []string, grid map[string]map[string]core.Result,
	baseline string, schemes []string, metric rowMetric) (*report.Table, error) {
	tbl := report.NewTable(title, rowHeader, schemes)
	for _, label := range labels {
		row := grid[label]
		for _, name := range append([]string{baseline}, schemes...) {
			if err := row[name].Err; err != nil {
				return nil, fmt.Errorf("%s/%s: %w", label, name, err)
			}
		}
		vals, err := metric(row, baseline)
		if err != nil {
			return nil, err
		}
		cells := make([]float64, len(schemes))
		for i, s := range schemes {
			cells[i] = vals[s]
		}
		tbl.MustAddRow(label, cells)
	}
	tbl.AddAverageRow("Average")
	return tbl, nil
}

// Figure4 compares the Section-II indexing schemes on MiBench.
func Figure4(ctx context.Context, cfg core.Config) (*report.Table, error) {
	return reductionTable(ctx, cfg,
		"Figure 4: % reduction in miss rate vs conventional indexing (MiBench)",
		core.IndexingSchemes, workload.MiBenchOrder, "baseline",
		core.MissReductionVsBaseline)
}

// Figure6 compares the Section-III programmable-associativity schemes.
func Figure6(ctx context.Context, cfg core.Config) (*report.Table, error) {
	return reductionTable(ctx, cfg,
		"Figure 6: % reduction in miss rate, programmable associativity (MiBench)",
		core.ProgrammableSchemes, workload.MiBenchOrder, "baseline",
		core.MissReductionVsBaseline)
}

// Figure7 compares AMAT (Eqs. 8-9) of the programmable schemes.
func Figure7(ctx context.Context, cfg core.Config) (*report.Table, error) {
	return reductionTable(ctx, cfg,
		"Figure 7: % reduction in AMAT vs direct-mapped (MiBench)",
		core.ProgrammableSchemes, workload.MiBenchOrder, "baseline",
		core.AMATReductionVsBaseline)
}

// Figure8 evaluates non-conventional primary indexes inside the
// column-associative cache on SPEC 2006, relative to the plain
// column-associative cache.
func Figure8(ctx context.Context, cfg core.Config) (*report.Table, error) {
	return reductionTable(ctx, cfg,
		"Figure 8: % reduction in miss rate vs plain column-associative (SPEC 2006)",
		core.HybridSchemes, workload.SPECOrder, "column_associative",
		core.MissReductionVsBaseline)
}

func kurtosis(m stats.Moments) float64 { return m.Kurtosis }
func skewness(m stats.Moments) float64 { return m.Skewness }

// missMoment is the % change in one moment of the per-set miss
// distribution against the baseline.
func missMoment(pick func(stats.Moments) float64) rowMetric {
	return func(row map[string]core.Result, baseline string) (map[string]float64, error) {
		return core.MomentChangeVsBaseline(row, baseline, pick)
	}
}

// Figure9 tabulates the % change in kurtosis of per-set misses for the
// indexing schemes.
func Figure9(ctx context.Context, cfg core.Config) (*report.Table, error) {
	return reductionTable(ctx, cfg,
		"Figure 9: % increase in kurtosis of misses, indexing schemes (MiBench)",
		core.IndexingSchemes, workload.MiBenchOrder, "baseline",
		missMoment(kurtosis))
}

// Figure10 tabulates the % change in skewness of per-set misses for the
// indexing schemes.
func Figure10(ctx context.Context, cfg core.Config) (*report.Table, error) {
	return reductionTable(ctx, cfg,
		"Figure 10: % increase in skewness of misses, indexing schemes (MiBench)",
		core.IndexingSchemes, workload.MiBenchOrder, "baseline",
		missMoment(skewness))
}

// Figure11 tabulates kurtosis change for the programmable schemes.
func Figure11(ctx context.Context, cfg core.Config) (*report.Table, error) {
	return reductionTable(ctx, cfg,
		"Figure 11: % increase in kurtosis of misses, programmable associativity (MiBench)",
		core.ProgrammableSchemes, workload.MiBenchOrder, "baseline",
		missMoment(kurtosis))
}

// Figure12 tabulates skewness change for the programmable schemes.
func Figure12(ctx context.Context, cfg core.Config) (*report.Table, error) {
	return reductionTable(ctx, cfg,
		"Figure 12: % increase in skewness of misses, programmable associativity (MiBench)",
		core.ProgrammableSchemes, workload.MiBenchOrder, "baseline",
		missMoment(skewness))
}

// ThreadMixes13 lists Figure 13's multiprogrammed workloads.
var ThreadMixes13 = [][]string{
	{"bitcount", "adpcm"},
	{"bzip2", "libquantum"},
	{"fft", "susan"},
	{"gromacs", "namd"},
	{"milc", "namd"},
	{"qsort", "basicmath"},
	{"qsort", "patricia"},
	{"fft", "basicmath", "patricia", "susan"},
	{"susan", "bitcount", "adpcm", "patricia"},
}

// ThreadMixes14 lists Figure 14's multiprogrammed workloads.
var ThreadMixes14 = [][]string{
	{"bitcount", "adpcm"},
	{"fft", "susan"},
	{"qsort", "basicmath"},
	{"qsort", "fft"},
	{"qsort", "patricia"},
	{"libquantum", "milc"},
	{"milc", "namd"},
	{"gromacs", "namd"},
	{"bzip2", "libquantum"},
	{"fft", "basicmath", "patricia", "susan"},
	{"susan", "bitcount", "adpcm", "patricia"},
}

// MixLabel joins a thread mix the way the paper's x-axis does.
func MixLabel(mix []string) string {
	label := ""
	for i, b := range mix {
		if i > 0 {
			label += "_"
		}
		label += b
	}
	return label
}
