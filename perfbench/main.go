// Command perfbench is the repository's benchmark.  One process runs one
// workload from a seed — figure regeneration (figs), hot-read serving
// (cell-hot) or churn-write fleet serving (cell-churn) — checks its
// outputs against references, and prints the end-to-end metrics as the
// last line of standard output.  With -trace 1 it instead runs the traced
// ladder and prints the per-layer metrics.  README.md describes the
// workloads, the metrics and the layer → metric → end-to-end map.
//
//	bash perfbench/run.sh --workload cell-hot --seed 3 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runDeadline bounds a whole run, so a wedged phase fails the run instead
// of hanging it.
const runDeadline = 170 * time.Second

func main() {
	if os.Getenv(setupProbeEnv) != "" {
		os.Exit(setupProbeMain(os.Args[1:], os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	// root is the repository checkout: testdata/golden and the reference
	// digests are read from it, and scratch state goes to .bench_build.
	root string
	// scale shrinks every workload (1 = the published benchmark); the
	// smoke tests run at a few percent.
	scale float64
	// work is this run's scratch directory for stores.
	work string
}

// workloads maps each workload to its timed run.
var workloads = map[string]func(context.Context, options) (*outcome, error){
	"figs":       runFigs,
	"cell-hot":   func(ctx context.Context, o options) (*outcome, error) { return runCells(ctx, o, hotMix) },
	"cell-churn": func(ctx context.Context, o options) (*outcome, error) { return runCells(ctx, o, churnMix) },
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: figs, cell-hot or cell-churn")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "seconds each run measures")
	traced := fs.Int("trace", 0, "1 = traced run: print the per-layer metrics instead")
	fs.StringVar(&o.root, "root", ".", "repository checkout root")
	fs.Float64Var(&o.scale, "scale", 1, "workload size factor (1 = the published benchmark)")
	updateRefs := fs.Bool("update-refs", false, "recompute refs/figs.json for every figs seed and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || o.scale <= 0 || o.scale > 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: need -seconds >= 1, 0 < -scale <= 1 and -trace 0 or 1")
		return 2
	}
	o.seconds = float64(*seconds)
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()

	if *updateRefs {
		if err := updateFigsRefs(ctx, o, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	runW, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown -workload %q (want figs, cell-hot or cell-churn)\n", o.workload)
		return 2
	}
	if _, err := os.Stat(filepath.Join(o.root, "go.mod")); err != nil {
		fmt.Fprintln(stderr, "perfbench: -root is not the repository checkout:", err)
		return 1
	}
	build := filepath.Join(o.root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	o.work = work

	var out *outcome
	if *traced == 1 {
		out, err = runTraced(ctx, o)
	} else {
		out, err = runW(ctx, o)
	}
	if err == nil {
		err = out.checkNames(*traced == 1)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out.report(stderr)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line of one run.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes are extra human-readable lines for standard error (sample
	// counts, wrong_total, guard shares); not part of the result line.
	notes []string
}

func newOutcome() *outcome { return &outcome{Metrics: map[string]metric{}} }

func (o *outcome) set(name string, v float64, unit string) {
	o.Metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// checkNames enforces the contract that a run prints exactly the metric
// set BENCHMARK.json declares for its mode, with the declared units.
func (o *outcome) checkNames(traced bool) error {
	defs := endToEndDefs
	if traced {
		defs = perLayerDefs()
	}
	want := map[string]string{}
	for _, d := range defs {
		want[d.name] = d.unit
	}
	var errs []error
	for name, unit := range want {
		m, ok := o.Metrics[name]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("metric %s was not measured", name))
		case m.Unit != unit:
			errs = append(errs, fmt.Errorf("metric %s has unit %s, want %s", name, m.Unit, unit))
		}
	}
	for name := range o.Metrics {
		if _, ok := want[name]; !ok {
			errs = append(errs, fmt.Errorf("metric %s is not declared", name))
		}
	}
	return errors.Join(errs...)
}

// report prints every metric by name and unit, then the notes.
func (o *outcome) report(w io.Writer) {
	names := make([]string, 0, len(o.Metrics))
	for n := range o.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := o.Metrics[n]
		fmt.Fprintf(w, "%-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range o.notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintf(w, "correct=%t attempted=%d failed=%d\n", o.Correct, o.Attempted, o.Failed)
}
