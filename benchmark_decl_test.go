package cacheuniformity

import (
	"encoding/json"
	"os"
	"testing"

	"cacheuniformity/internal/registry"
)

// TestBenchmarkDeclaresEveryKind: the benchmark harness under perfbench/
// prints an access and a build metric for every registered scheme kind,
// and a metric BENCHMARK.json does not declare fails it.  perfbench is a
// module of its own, so `go test ./...` never runs its check; this one
// fails here as soon as a kind is registered without its two lines.
func TestBenchmarkDeclaresEveryKind(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, m := range b.PerLayer {
		declared[m.Name] = true
	}
	for _, k := range registry.SchemeKinds() {
		for _, name := range []string{"access." + k.Kind + ".ns_per_access", "registry.build_us." + k.Kind} {
			if !declared[name] {
				t.Errorf("scheme kind %q: BENCHMARK.json does not declare %s", k.Kind, name)
			}
		}
	}
}
