package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"cacheuniformity/internal/core"
	"cacheuniformity/internal/experiments"
)

// figsSeeds are the workload seeds the figs workload runs at; -seed picks
// one by its remainder.  The paper's seed comes first.  Every entry has
// reference digests in refs/figs.json.  The others were chosen so that a
// pass costs about the same at each: at seed 2, for one, Figure 14 takes
// nearly twice as long.
var figsSeeds = []uint64{20110913, 1, 3}

// figsConfig is the paper configuration with the run's workload seed,
// Parallelism = nproc and no result store.
func figsConfig(o options) core.Config {
	cfg := core.Default()
	cfg.Seed = figsSeeds[o.seed%uint64(len(figsSeeds))]
	cfg.TraceLength = scaled(cfg.TraceLength, o.scale, 2000)
	cfg.Parallelism = nproc()
	return cfg
}

// figsRefs maps "seed/trace_length" to each figure's table digest.
type figsRefs map[string]map[string]string

func refsKey(cfg core.Config) string {
	return strconv.FormatUint(cfg.Seed, 10) + "/" + strconv.Itoa(cfg.TraceLength)
}

func refsPath(root string) string { return filepath.Join(root, "perfbench", "refs", "figs.json") }

func loadFigsRefs(root string) (figsRefs, error) {
	data, err := os.ReadFile(refsPath(root))
	if err != nil {
		return nil, fmt.Errorf("figs references: %w", err)
	}
	var refs figsRefs
	if err := json.Unmarshal(data, &refs); err != nil {
		return nil, fmt.Errorf("figs references: %w", err)
	}
	return refs, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// figsPass is one regeneration of every figure.
type figsPass struct {
	wall   time.Duration
	perFig map[int]time.Duration
	tables map[int]string
}

// runFigsPass regenerates every figure with a fresh trace cache, so each
// pass starts with empty simulated caches and cold traces.
func runFigsPass(ctx context.Context, cfg core.Config, memo core.Memoizer, rec *recorder) (figsPass, error) {
	cfg.Traces = core.NewMemTraceCache(0)
	cfg.Memo = memo
	p := figsPass{perFig: map[int]time.Duration{}, tables: map[int]string{}}
	start := time.Now()
	for _, f := range experiments.All() {
		if m, ok := memo.(*recordingMemo); ok {
			m.fig = f.ID
		}
		id := rec.begin(figMetric(f.ID), 0, 0)
		t := time.Now()
		tbl, err := f.Run(ctx, cfg)
		d := time.Since(t)
		rec.end(id)
		if err != nil {
			return p, fmt.Errorf("figure %d: %w", f.ID, err)
		}
		var sb strings.Builder
		if err := tbl.WriteText(&sb); err != nil {
			return p, fmt.Errorf("figure %d: %w", f.ID, err)
		}
		p.perFig[f.ID] = d
		p.tables[f.ID] = sb.String()
	}
	p.wall = time.Since(start)
	return p, nil
}

// wrongTables counts tables whose digest differs from the reference for
// cfg, or — when no reference covers cfg (smoke scales) — from the
// run's first pass.
func wrongTables(refs figsRefs, cfg core.Config, first, p figsPass) int {
	ref := refs[refsKey(cfg)]
	wrong := 0
	for id, tbl := range p.tables {
		want := ref[twoDigits(id)]
		if ref == nil {
			want = digest([]byte(first.tables[id]))
		}
		if digest([]byte(tbl)) != want {
			wrong++
		}
	}
	return wrong
}

// checkGolden regenerates the golden figures at the golden config (20k
// accesses, the paper's seed) and counts tables that differ from
// testdata/golden byte for byte.
func checkGolden(ctx context.Context, root string) (checked, wrong int, err error) {
	paths, err := filepath.Glob(filepath.Join(root, "testdata", "golden", "fig*.txt"))
	if err != nil || len(paths) == 0 {
		return 0, 0, fmt.Errorf("no golden figures under %s/testdata/golden", root)
	}
	cfg := core.Default()
	cfg.TraceLength = 20_000
	cfg.Parallelism = nproc()
	for _, path := range paths {
		id, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "fig"), ".txt"))
		if err != nil {
			return checked, wrong, fmt.Errorf("golden file %s: %w", path, err)
		}
		want, err := os.ReadFile(path)
		if err != nil {
			return checked, wrong, err
		}
		fig, err := experiments.ByID(id)
		if err != nil {
			return checked, wrong, err
		}
		tbl, err := fig.Run(ctx, cfg)
		if err != nil {
			return checked, wrong, fmt.Errorf("golden figure %d: %w", id, err)
		}
		var sb strings.Builder
		if err := tbl.WriteText(&sb); err != nil {
			return checked, wrong, err
		}
		checked++
		if sb.String() != string(want) {
			wrong++
		}
	}
	return checked, wrong, nil
}

// countingMemo counts the grid cells the figures evaluate, passing every
// call through to the engines unchanged.
type countingMemo struct {
	mu    sync.Mutex
	cells int
}

func (m *countingMemo) MemoGrid(ctx context.Context, cfg core.Config, schemes, benches []string) (map[string]map[string]core.Result, error) {
	m.mu.Lock()
	m.cells += len(schemes) * len(benches)
	m.mu.Unlock()
	return core.Grid(ctx, cfg, schemes, benches)
}

func (m *countingMemo) MemoCell(ctx context.Context, cfg core.Config, scheme, bench string) (core.Result, error) {
	m.mu.Lock()
	m.cells++
	m.mu.Unlock()
	return core.RunOne(ctx, cfg, scheme, bench)
}

// figsAccesses is the number of simulated accesses one pass replays:
// every grid and single cell at cfg.TraceLength, plus the two models per
// multithreaded mix of Figures 13 and 14 (one stream per thread).  The
// count does not depend on the trace length, so it is taken on a short
// pass.
func figsAccesses(ctx context.Context, cfg core.Config) (int64, error) {
	short := cfg
	short.TraceLength = 500
	m := &countingMemo{}
	if _, err := runFigsPass(ctx, short, m, nil); err != nil {
		return 0, err
	}
	n := int64(m.cells) * int64(cfg.TraceLength)
	for _, mixes := range [][][]string{experiments.ThreadMixes13, experiments.ThreadMixes14} {
		for _, mix := range mixes {
			n += 2 * int64(len(mix)) * int64(cfg.TraceLength)
		}
	}
	return n, nil
}

// runFigs is the figs workload: regenerate every figure until the
// measured seconds are spent (at least twice), checking every table.
func runFigs(ctx context.Context, o options) (*outcome, error) {
	setups, err := figsSetupTimes(ctx, o, setupRepeats)
	if err != nil {
		return nil, err
	}
	refs, err := loadFigsRefs(o.root)
	if err != nil {
		return nil, err
	}
	cfg := figsConfig(o)
	accesses, err := figsAccesses(ctx, cfg)
	if err != nil {
		return nil, err
	}
	goldenChecked, goldenWrong, err := checkGolden(ctx, o.root)
	if err != nil {
		return nil, err
	}

	heap := startHeapSampler()
	var walls, p50s, maxes []float64
	var first figsPass
	wrong, tables := goldenWrong, goldenChecked
	start := time.Now()
	for pass := 0; ; pass++ {
		p, err := runFigsPass(ctx, cfg, nil, nil)
		if err != nil {
			heap.Stop()
			return nil, err
		}
		if pass == 0 {
			first = p
		}
		wrong += wrongTables(refs, cfg, first, p)
		tables += len(p.tables)
		walls = append(walls, p.wall.Seconds())
		var figTimes []float64
		for _, d := range p.perFig {
			figTimes = append(figTimes, float64(d)/float64(time.Millisecond))
		}
		p50s = append(p50s, quantile(figTimes, 0.5))
		maxes = append(maxes, quantile(figTimes, 1))
		// Start another pass only if it can finish inside the window.
		if pass >= 1 && time.Since(start).Seconds()+p.wall.Seconds() > o.seconds {
			break
		}
	}
	peak := heap.Stop()

	out := newOutcome()
	wall := median(walls)
	out.set("setup_s", median(setups), "s")
	out.set("wall_s", wall, "s")
	out.set("sim_accesses_per_s", float64(accesses)/wall, "1/s")
	out.set("req_per_s", float64(len(figureIDs))/wall, "1/s")
	out.set("p50_ms", median(p50s), "ms")
	out.set("p99_ms", median(maxes), "ms")
	out.set("ok_frac", 1, "ratio")
	out.set("heap_peak_mb", peak, "MB")
	out.Attempted = int64(tables)
	out.Failed = int64(wrong)
	out.Correct = wrong == 0
	out.note("figs: seed %d, %d passes of %d figures (pass walls %.3v s), %d accesses/pass, wrong_total=%d (golden tables checked: %d)",
		cfg.Seed, len(walls), len(figureIDs), walls, accesses, wrong, goldenChecked)
	return out, nil
}

// setupProbeEnv marks a child process started to time the figs set-up:
// it prepares a pass exactly as runFigs does, prints "ready" just before
// the first figure call would start, and exits.
const setupProbeEnv = "PERFBENCH_SETUP_PROBE"

func setupProbeMain(args []string, stdout io.Writer) int {
	var o options
	fs := flag.NewFlagSet("perfbench setup probe", flag.ContinueOnError)
	fs.StringVar(&o.root, "root", ".", "")
	fs.Float64Var(&o.scale, "scale", 1, "")
	fs.Uint64Var(&o.seed, "seed", 0, "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, err := loadFigsRefs(o.root); err != nil {
		return 1
	}
	cfg := figsConfig(o)
	cfg.Traces = core.NewMemTraceCache(0)
	if cfg.Traces == nil || len(experiments.All()) != len(figureIDs) {
		return 1
	}
	fmt.Fprintln(stdout, "ready")
	return 0
}

// figsSetupTimes measures, n times, the set-up a figs run pays: from
// starting the process to the point where the first figure call begins.
func figsSetupTimes(ctx context.Context, o options, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		d, err := setupProbe(ctx, exe, o)
		if err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// setupProbe starts one probe process and times it until it reports
// ready, then waits for it to exit.
func setupProbe(ctx context.Context, exe string, o options) (time.Duration, error) {
	cmd := exec.CommandContext(ctx, exe, "-root", o.root, "-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
		"-seed", strconv.FormatUint(o.seed, 10))
	cmd.Env = append(os.Environ(), setupProbeEnv+"=1")
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	defer pipe.Close()
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, readErr := bufio.NewReader(pipe).ReadString('\n')
	d := time.Since(start)
	waitErr := cmd.Wait()
	if readErr != nil || strings.TrimSpace(line) != "ready" || waitErr != nil {
		return 0, fmt.Errorf("figs set-up probe failed: %v", errors.Join(readErr, waitErr))
	}
	return d, nil
}

// updateFigsRefs recomputes refs/figs.json at every figs seed, at the
// published scale.
func updateFigsRefs(ctx context.Context, o options, log io.Writer) error {
	refs := figsRefs{}
	for i := range figsSeeds {
		o.seed = uint64(i)
		cfg := figsConfig(o)
		p, err := runFigsPass(ctx, cfg, nil, nil)
		if err != nil {
			return err
		}
		m := map[string]string{}
		for id, tbl := range p.tables {
			m[twoDigits(id)] = digest([]byte(tbl))
		}
		refs[refsKey(cfg)] = m
		fmt.Fprintf(log, "seed %d: %d tables in %.2fs\n", cfg.Seed, len(m), p.wall.Seconds())
	}
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(refsPath(o.root), append(data, '\n'), 0o644)
}
