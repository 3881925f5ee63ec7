package experiments

import (
	"context"
	"fmt"
	"sort"

	"cacheuniformity/internal/core"
	"cacheuniformity/internal/report"
	"cacheuniformity/internal/stats"
	"cacheuniformity/internal/workload"
)

// Figure5 realises the paper's Figure-5 proposal (a design sketch in the
// paper, made executable here): each application is profiled off-line and
// the indexing scheme with the fewest profile misses is selected; the
// default stays conventional.  To show the selection transfers beyond the
// profiling run, the chosen scheme is then deployed on a fresh trace
// (different seed) and its miss reduction vs the baseline is reported next
// to the profile-run reduction.  Row labels carry the chosen scheme, e.g.
// "fft(odd_multiplier)".
//
// The figure is three kinds of grid: one selection grid over every
// benchmark, one deploy grid of the baseline, and one deploy grid per
// distinct winner over the benchmarks that chose it.  A benchmark that
// keeps the baseline reuses its baseline deploy cell.
func Figure5(ctx context.Context, cfg core.Config) (*report.Table, error) {
	tbl := report.NewTable(
		"Figure 5 (proposal): per-application indexing-scheme selection",
		"benchmark(chosen)", []string{"profile_%red", "deployed_%red"})
	deploy := cfg
	deploy.Seed = cfg.Canonical().Seed + 0x9E3779B9 // a different program run

	sels, err := core.SelectIndexing(ctx, cfg, workload.MiBenchOrder...)
	if err != nil {
		return nil, err
	}
	base, err := core.Grid(ctx, deploy, []string{"baseline"}, workload.MiBenchOrder)
	if err != nil {
		return nil, err
	}
	chosenBy := map[string][]string{} // winner → benchmarks, in figure order
	var winners []string
	for _, sel := range sels {
		if sel.Scheme == "baseline" {
			continue
		}
		if _, seen := chosenBy[sel.Scheme]; !seen {
			winners = append(winners, sel.Scheme)
		}
		chosenBy[sel.Scheme] = append(chosenBy[sel.Scheme], sel.Benchmark)
	}
	sort.Strings(winners)
	deployed := make(map[string]core.Result, len(sels)) // benchmark → its winner's deploy cell
	for _, w := range winners {
		g, err := core.Grid(ctx, deploy, []string{w}, chosenBy[w])
		if err != nil {
			return nil, err
		}
		for _, bench := range chosenBy[w] {
			deployed[bench] = g[bench][w]
		}
	}

	for _, sel := range sels {
		profileRed := stats.PercentReduction(sel.Candidates["baseline"], sel.ProfileMissRate)
		baseRes := base[sel.Benchmark]["baseline"]
		if baseRes.Err != nil {
			return nil, baseRes.Err
		}
		selRes, ok := deployed[sel.Benchmark]
		if !ok {
			selRes = baseRes
		}
		if selRes.Err != nil {
			return nil, selRes.Err
		}
		deployedRed := stats.PercentReduction(baseRes.MissRate, selRes.MissRate)

		tbl.MustAddRow(fmt.Sprintf("%s(%s)", sel.Benchmark, sel.Scheme), []float64{profileRed, deployedRed})
	}
	tbl.AddAverageRow("Average")
	return tbl, nil
}
