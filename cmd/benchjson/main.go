// Command benchjson converts `go test -bench` output into a JSON summary
// and optionally enforces allocation budgets, so benchmark regressions can
// gate CI without extra tooling.
//
// It reads the benchmark output on stdin, echoes it unchanged to stdout
// (keeping the human-readable log visible in CI), and writes the parsed
// summary to -o.  Budgets are expressed as -maxallocs Name=N, repeatable;
// the run fails if the named benchmark is missing or any of its samples
// exceeds N allocs/op.  Ratio gates are expressed as -minspeedup
// Slow/Fast=N: the run fails unless Slow's fastest repetition is at least
// N times slower than Fast's (e.g. a cold simulation vs a warm cache hit).
// Throughput floors are expressed as -minmetric Name:metric=F: the run
// fails unless the named benchmark reports the custom metric and its best
// repetition reaches at least F (e.g. accesses/s on the grid engine).
// Ceilings are the mirror image, -maxmetric Name:metric=C: the run fails
// unless the metric's best (smallest) repetition stays at or below C
// (e.g. a p99 latency budget on the cluster load generator).
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkGrid' -benchmem -count 3 . | \
//	    benchjson -o BENCH_grid.json -maxallocs BenchmarkGridFanout=200000 \
//	    -minmetric BenchmarkGridFanout:accesses/s=10000000
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Sample is one benchmark line: iteration count plus every value/unit pair
// go test printed (ns/op, B/op, allocs/op and any b.ReportMetric units).
type Sample struct {
	N       int                `json:"n"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Bench aggregates the samples of one benchmark across -count repetitions.
type Bench struct {
	Name string `json:"name"`
	// Pkg is the package the benchmark ran in (one run may span several).
	Pkg     string   `json:"pkg,omitempty"`
	Samples []Sample `json:"samples"`
	// MinNsPerOp is the fastest repetition — the conventional headline
	// number, least disturbed by scheduling noise.
	MinNsPerOp float64 `json:"min_ns_per_op"`
}

// Report is the file written to -o.
type Report struct {
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	// Pkg is the package every benchmark ran in; empty when they span
	// several.
	Pkg     string  `json:"pkg,omitempty"`
	CPU     string  `json:"cpu,omitempty"`
	Benches []Bench `json:"benchmarks"`
}

type budget struct {
	name string
	max  float64
}

// speedup is one -minspeedup gate: MinNsPerOp(slow) must be at least
// ratio times MinNsPerOp(fast).
type speedup struct {
	slow, fast string
	ratio      float64
}

// minMetric is one -minmetric gate: the benchmark's best repetition of the
// named custom metric must reach the floor.
type minMetric struct {
	name   string
	metric string
	floor  float64
}

// maxMetric is one -maxmetric gate: the benchmark's best (smallest)
// repetition of the named custom metric must stay at or below the
// ceiling.
type maxMetric struct {
	name    string
	metric  string
	ceiling float64
}

func main() {
	out := flag.String("o", "", "write the JSON summary to this file (empty = stdout only)")
	var budgets []budget
	flag.Func("maxallocs", "allocation budget Name=N; fail if the benchmark is missing or exceeds N allocs/op (repeatable)",
		func(v string) error {
			name, limit, ok := strings.Cut(v, "=")
			if !ok {
				return fmt.Errorf("want Name=N, got %q", v)
			}
			max, err := strconv.ParseFloat(limit, 64)
			if err != nil {
				return fmt.Errorf("bad limit in %q: %v", v, err)
			}
			budgets = append(budgets, budget{name: name, max: max})
			return nil
		})
	var speedups []speedup
	flag.Func("minspeedup", "speedup gate Slow/Fast=N; fail unless Slow is at least N times slower than Fast by min ns/op (repeatable)",
		func(v string) error {
			pair, limit, ok := strings.Cut(v, "=")
			if !ok {
				return fmt.Errorf("want Slow/Fast=N, got %q", v)
			}
			slow, fast, ok := strings.Cut(pair, "/")
			if !ok || slow == "" || fast == "" {
				return fmt.Errorf("want Slow/Fast=N, got %q", v)
			}
			ratio, err := strconv.ParseFloat(limit, 64)
			if err != nil || ratio <= 0 {
				return fmt.Errorf("bad ratio in %q", v)
			}
			speedups = append(speedups, speedup{slow: slow, fast: fast, ratio: ratio})
			return nil
		})
	var floors []minMetric
	flag.Func("minmetric", "throughput floor Name:metric=F; fail unless the benchmark's best repetition of the custom metric reaches F (repeatable)",
		func(v string) error {
			target, limit, ok := strings.Cut(v, "=")
			if !ok {
				return fmt.Errorf("want Name:metric=F, got %q", v)
			}
			name, metric, ok := strings.Cut(target, ":")
			if !ok || name == "" || metric == "" {
				return fmt.Errorf("want Name:metric=F, got %q", v)
			}
			floor, err := strconv.ParseFloat(limit, 64)
			if err != nil {
				return fmt.Errorf("bad floor in %q: %v", v, err)
			}
			floors = append(floors, minMetric{name: name, metric: metric, floor: floor})
			return nil
		})
	var ceilings []maxMetric
	flag.Func("maxmetric", "ceiling Name:metric=C; fail unless the benchmark's best (smallest) repetition of the custom metric stays at or below C (repeatable)",
		func(v string) error {
			target, limit, ok := strings.Cut(v, "=")
			if !ok {
				return fmt.Errorf("want Name:metric=C, got %q", v)
			}
			name, metric, ok := strings.Cut(target, ":")
			if !ok || name == "" || metric == "" {
				return fmt.Errorf("want Name:metric=C, got %q", v)
			}
			ceiling, err := strconv.ParseFloat(limit, 64)
			if err != nil {
				return fmt.Errorf("bad ceiling in %q: %v", v, err)
			}
			ceilings = append(ceilings, maxMetric{name: name, metric: metric, ceiling: ceiling})
			return nil
		})
	flag.Parse()

	rep, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}

	failed := false
	for _, b := range budgets {
		if err := check(rep, b); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			failed = true
		}
	}
	for _, s := range speedups {
		if err := checkSpeedup(rep, s); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			failed = true
		}
	}
	for _, m := range floors {
		if err := checkMinMetric(rep, m); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			failed = true
		}
	}
	for _, m := range ceilings {
		if err := checkMaxMetric(rep, m); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// parse consumes go test benchmark output, echoing every line to stdout.
func parse(sc *bufio.Scanner) (*Report, error) {
	rep := &Report{}
	byName := map[string]*Bench{}
	var order []string // first-seen benchmark order
	var pkg string
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if v, ok := strings.CutPrefix(line, "goos: "); ok {
			rep.Goos = v
			continue
		}
		if v, ok := strings.CutPrefix(line, "goarch: "); ok {
			rep.Goarch = v
			continue
		}
		if v, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = v
			continue
		}
		if v, ok := strings.CutPrefix(line, "cpu: "); ok {
			rep.CPU = v
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil {
			continue // PASS/FAIL summaries and other non-result lines
		}
		// -count repetitions share a name; the -N suffix (GOMAXPROCS) is
		// part of the printed name and kept as-is.
		s := Sample{N: n, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: bad value %q", line, fields[i])
			}
			if fields[i+1] == "ns/op" {
				s.NsPerOp = val
			} else {
				s.Metrics[fields[i+1]] = val
			}
		}
		b := byName[fields[0]]
		if b == nil {
			b = &Bench{Name: fields[0], Pkg: pkg}
			byName[fields[0]] = b
			order = append(order, fields[0])
		}
		b.Samples = append(b.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for i, name := range order {
		b := byName[name]
		switch {
		case i == 0:
			rep.Pkg = b.Pkg
		case b.Pkg != rep.Pkg:
			rep.Pkg = ""
		}
		b.MinNsPerOp = b.Samples[0].NsPerOp
		for _, s := range b.Samples[1:] {
			if s.NsPerOp < b.MinNsPerOp {
				b.MinNsPerOp = s.NsPerOp
			}
		}
		rep.Benches = append(rep.Benches, *b)
	}
	return rep, nil
}

func check(rep *Report, b budget) error {
	for _, bench := range rep.Benches {
		if bench.Name != b.name && !strings.HasPrefix(bench.Name, b.name+"-") {
			continue
		}
		for _, s := range bench.Samples {
			if allocs, ok := s.Metrics["allocs/op"]; ok && allocs > b.max {
				return fmt.Errorf("%s: %.0f allocs/op exceeds budget %.0f", bench.Name, allocs, b.max)
			}
		}
		return nil
	}
	return fmt.Errorf("budget %s=%.0f: benchmark not found in input", b.name, b.max)
}

// findBench resolves a gate name, tolerating the printed -N GOMAXPROCS
// suffix like check does.
func findBench(rep *Report, name string) (Bench, error) {
	for _, bench := range rep.Benches {
		if bench.Name == name || strings.HasPrefix(bench.Name, name+"-") {
			return bench, nil
		}
	}
	return Bench{}, fmt.Errorf("benchmark %s not found in input", name)
}

func checkSpeedup(rep *Report, s speedup) error {
	slow, err := findBench(rep, s.slow)
	if err != nil {
		return fmt.Errorf("speedup %s/%s: %w", s.slow, s.fast, err)
	}
	fast, err := findBench(rep, s.fast)
	if err != nil {
		return fmt.Errorf("speedup %s/%s: %w", s.slow, s.fast, err)
	}
	if fast.MinNsPerOp <= 0 {
		return fmt.Errorf("speedup %s/%s: %s has no ns/op", s.slow, s.fast, s.fast)
	}
	got := slow.MinNsPerOp / fast.MinNsPerOp
	if got < s.ratio {
		return fmt.Errorf("speedup %s/%s = %.1fx, below the required %.0fx", s.slow, s.fast, got, s.ratio)
	}
	return nil
}

// checkMinMetric takes the best (largest) repetition, mirroring
// MinNsPerOp: the floor gates what the machine can do, not what the noisy
// repetitions averaged.
func checkMinMetric(rep *Report, m minMetric) error {
	bench, err := findBench(rep, m.name)
	if err != nil {
		return fmt.Errorf("minmetric %s:%s: %w", m.name, m.metric, err)
	}
	best, seen := 0.0, false
	for _, s := range bench.Samples {
		if v, ok := s.Metrics[m.metric]; ok {
			if !seen || v > best {
				best, seen = v, true
			}
		}
	}
	if !seen {
		return fmt.Errorf("minmetric %s:%s: benchmark reports no such metric", m.name, m.metric)
	}
	if best < m.floor {
		return fmt.Errorf("%s: %s = %.3g, below the required floor %.3g", bench.Name, m.metric, best, m.floor)
	}
	return nil
}

// checkMaxMetric takes the best (smallest) repetition, the mirror of
// checkMinMetric: the ceiling gates the machine's best case, so a single
// noisy repetition cannot fail the run.
func checkMaxMetric(rep *Report, m maxMetric) error {
	bench, err := findBench(rep, m.name)
	if err != nil {
		return fmt.Errorf("maxmetric %s:%s: %w", m.name, m.metric, err)
	}
	best, seen := 0.0, false
	for _, s := range bench.Samples {
		if v, ok := s.Metrics[m.metric]; ok {
			if !seen || v < best {
				best, seen = v, true
			}
		}
	}
	if !seen {
		return fmt.Errorf("maxmetric %s:%s: benchmark reports no such metric", m.name, m.metric)
	}
	if best > m.ceiling {
		return fmt.Errorf("%s: %s = %.3g, above the allowed ceiling %.3g", bench.Name, m.metric, best, m.ceiling)
	}
	return nil
}
