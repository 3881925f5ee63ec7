package core

import (
	"context"

	"reflect"
	"runtime"
	"testing"
)

// The fan-out grid's contract is byte-identity: every cell of the
// generate-once engine must deep-equal what sequential RunOne (and the
// per-cell oracle, gridPerCell) produce, at every parallelism level,
// because each model still replays the exact same access sequence.

func equivalenceConfig() Config {
	cfg := Default()
	cfg.TraceLength = 20_000 // full roster × benches; keep the test quick
	return cfg
}

func TestGridFanoutMatchesRunOne(t *testing.T) {
	cfg := equivalenceConfig()
	schemes := SchemeNames("")
	benches := []string{"fft", "sha", "dijkstra"}

	want := make(map[string]map[string]Result, len(benches))
	for _, b := range benches {
		row := make(map[string]Result, len(schemes))
		for _, s := range schemes {
			res, err := RunOne(context.Background(), cfg, s, b)
			if err != nil {
				t.Fatalf("RunOne(%s, %s): %v", s, b, err)
			}
			row[s] = res
		}
		want[b] = row
	}

	for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		cfg := cfg
		cfg.Parallelism = par
		got, err := Grid(context.Background(), cfg, schemes, benches)
		if err != nil {
			t.Fatalf("Grid(parallelism=%d): %v", par, err)
		}
		for _, b := range benches {
			for _, s := range schemes {
				g, w := got[b][s], want[b][s]
				if !reflect.DeepEqual(g, w) {
					t.Errorf("parallelism=%d: grid[%s][%s] diverges from RunOne\n got: %+v\nwant: %+v",
						par, b, s, g, w)
				}
			}
		}
	}
}

func TestGridFanoutMatchesPerCell(t *testing.T) {
	cfg := equivalenceConfig()
	schemes := SchemeNames("")
	benches := []string{"qsort", "mcf"}

	resolvedSchemes, resolvedBenches, err := resolveGrid(schemes, benches)
	if err != nil {
		t.Fatal(err)
	}
	percell, err := gridPerCell(context.Background(), cfg, resolvedSchemes, resolvedBenches)
	if err != nil {
		t.Fatalf("gridPerCell: %v", err)
	}
	fanout, err := Grid(context.Background(), cfg, schemes, benches)
	if err != nil {
		t.Fatalf("Grid: %v", err)
	}
	if !reflect.DeepEqual(fanout, percell) {
		t.Fatalf("fan-out grid diverges from per-cell oracle")
	}
}

func TestGridFanoutUnknownNames(t *testing.T) {
	cfg := equivalenceConfig()
	if _, err := Grid(context.Background(), cfg, []string{"baseline"}, []string{"no_such_bench"}); err == nil {
		t.Error("Grid accepted an unknown benchmark")
	}
	if _, err := Grid(context.Background(), cfg, []string{"no_such_scheme"}, []string{"fft"}); err == nil {
		t.Error("Grid accepted an unknown scheme")
	}
}

// TestSchemesReturnsCopies guards the roster-once satellite: mutating the
// returned slice must not leak into later calls.
func TestSchemesReturnsCopies(t *testing.T) {
	a := Schemes()
	name := a[0].Name
	a[0] = Scheme{Name: "corrupted"}
	b := Schemes()
	if b[0].Name != name {
		t.Fatalf("Schemes()[0].Name = %q after caller mutation, want %q", b[0].Name, name)
	}
	s, err := SchemeByName(name)
	if err != nil || s.Name != name {
		t.Fatalf("SchemeByName(%q) = (%+v, %v)", name, s, err)
	}
}

func TestSchemeByNameUnknown(t *testing.T) {
	if _, err := SchemeByName("definitely_not_a_scheme"); err == nil {
		t.Error("SchemeByName accepted an unknown name")
	}
}
