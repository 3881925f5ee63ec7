package experiments

import (
	"context"
	"fmt"

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
func Figure5(ctx context.Context, cfg core.Config) (*report.Table, error) {
	tbl := report.NewTable(
		"Figure 5 (proposal): per-application indexing-scheme selection",
		"benchmark(chosen)", []string{"profile_%red", "deployed_%red"})
	deploy := cfg
	deploy.Seed = cfg.Canonical().Seed + 0x9E3779B9 // a different program run

	for _, bench := range workload.MiBenchOrder {
		sel, err := core.SelectIndexing(ctx, cfg, bench)
		if err != nil {
			return nil, err
		}
		profileRed := stats.PercentReduction(sel.Candidates["baseline"], sel.ProfileMissRate)

		baseRes, err := core.RunOne(ctx, deploy, "baseline", bench)
		if err != nil {
			return nil, err
		}
		selRes, err := core.RunOne(ctx, deploy, sel.Scheme, bench)
		if err != nil {
			return nil, err
		}
		deployedRed := stats.PercentReduction(baseRes.MissRate, selRes.MissRate)

		tbl.MustAddRow(fmt.Sprintf("%s(%s)", bench, sel.Scheme), []float64{profileRed, deployedRed})
	}
	tbl.AddAverageRow("Average")
	return tbl, nil
}
