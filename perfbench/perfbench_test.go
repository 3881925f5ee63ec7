package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	// The figs set-up probe re-executes this binary.
	if os.Getenv(setupProbeEnv) != "" {
		os.Exit(setupProbeMain(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// TestSelfTimes checks the self-time arithmetic on a synthetic span tree:
// overlapping children count once, a child running past its parent
// counts only inside it, and grandchildren are charged to their own
// parent, not the root.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "a1", Start: 15, End: 25},
		{ID: 6, Name: "other", Start: 0, End: 7},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 50 - 10, 2: 30 - 10, 3: 30, 4: 30, 5: 10, 6: 7}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, self[id], w)
		}
	}
	byName := selfByName(append(spans, span{ID: 7, Name: "a", Start: 200, End: 205}))
	if byName["a"] != 25 {
		t.Errorf("self time of name a = %d, want 25", byName["a"])
	}
}

// TestMetricNames checks that the metrics the benchmark prints are
// exactly the ones BENCHMARK.json declares, with the same units.
func TestMetricNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		want := map[string]string{}
		for _, d := range defs {
			want[d.name] = d.unit
		}
		got := map[string]string{}
		for _, d := range declared {
			got[d.Name] = d.Unit
		}
		for n, u := range want {
			if got[n] != u {
				t.Errorf("%s: the benchmark prints %s [%s]; BENCHMARK.json has [%s]", kind, n, u, got[n])
			}
		}
		for n := range got {
			if _, ok := want[n]; !ok {
				t.Errorf("%s: BENCHMARK.json declares %s, which the benchmark never prints", kind, n)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndDefs)
	check("per_layer", b.PerLayer, perLayerDefs())
}

// runSmoke runs the benchmark in-process at a tiny scale and returns its
// result line.
func runSmoke(t *testing.T, args ...string) outcome {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"-seed", "3", "-seconds", "1", "-scale", "0.05", "-root", ".."}, args...)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Fatalf("correct=%t attempted=%d failed=%d\n%s", out.Correct, out.Attempted, out.Failed, stderr.String())
	}
	return out
}

func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds each")
	}
	for _, w := range []string{"figs", "cell-hot", "cell-churn"} {
		t.Run(w, func(t *testing.T) {
			out := runSmoke(t, "-workload", w)
			if len(out.Metrics) != len(endToEndDefs) {
				t.Errorf("%d metrics, want %d", len(out.Metrics), len(endToEndDefs))
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced smoke run takes several seconds")
	}
	out := runSmoke(t, "-workload", "cell-churn", "-trace", "1")
	if len(out.Metrics) != len(perLayerDefs()) {
		t.Errorf("%d metrics, want %d", len(out.Metrics), len(perLayerDefs()))
	}
}
