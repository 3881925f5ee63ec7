package core

import (
	"context"

	"testing"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/registry"
	"cacheuniformity/internal/stats"
	"cacheuniformity/internal/trace"
)

func fastCfg() Config {
	c := Default()
	c.TraceLength = 40_000
	return c
}

func TestSchemeRoster(t *testing.T) {
	all := Schemes()
	// The default roster is exactly the registry's default declarations;
	// adding a scheme there is what grows this count.
	if want := len(registry.DefaultSchemeDecls()); len(all) != want {
		t.Fatalf("roster has %d schemes, registry declares %d", len(all), want)
	}
	seen := map[string]bool{}
	for _, s := range all {
		if seen[s.Name] {
			t.Errorf("duplicate scheme %q", s.Name)
		}
		seen[s.Name] = true
		if s.Build == nil || s.AMAT == nil {
			t.Errorf("scheme %q missing Build/AMAT", s.Name)
		}
	}
	for _, want := range append(append([]string{"baseline"}, IndexingSchemes...), ProgrammableSchemes...) {
		if !seen[want] {
			t.Errorf("roster missing %q", want)
		}
	}
	for _, want := range HybridSchemes {
		if !seen[want] {
			t.Errorf("roster missing hybrid %q", want)
		}
	}
	if _, err := SchemeByName("nosuch"); err == nil {
		t.Error("unknown scheme accepted")
	}
	// Derive per-kind expectations from the registry declarations instead
	// of hard-coding counts, so a roster addition cannot silently break
	// this test.
	wantByKind := map[Kind]int{}
	for _, d := range registry.DefaultSchemeDecls() {
		s, err := registry.ResolveScheme(d)
		if err != nil {
			t.Fatalf("resolve %q: %v", d.Name, err)
		}
		wantByKind[s.Kind]++
	}
	for _, kind := range []Kind{registry.FamilyBaseline, registry.FamilyIndexing, registry.FamilyProgrammable, registry.FamilyHybrid, registry.FamilyReference} {
		if got := SchemeNames(kind); len(got) != wantByKind[kind] {
			t.Errorf("%s schemes = %v, registry declares %d", kind, got, wantByKind[kind])
		}
	}
}

func TestEverySchemeBuildsAndRuns(t *testing.T) {
	cfg := fastCfg()
	cfg.TraceLength = 20_000
	for _, s := range Schemes() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			res, err := RunOne(context.Background(), cfg, s.Name, "dijkstra")
			if err != nil {
				t.Fatalf("RunOne: %v", err)
			}
			if res.Counters.Accesses != uint64(cfg.TraceLength) {
				t.Errorf("accesses = %d, want %d", res.Counters.Accesses, cfg.TraceLength)
			}
			if res.MissRate < 0 || res.MissRate > 1 {
				t.Errorf("miss rate = %v", res.MissRate)
			}
			if res.AMAT < 1 {
				t.Errorf("AMAT = %v, want ≥ 1 cycle", res.AMAT)
			}
			if len(res.PerSet.Accesses) == 0 {
				t.Error("no per-set data")
			}
		})
	}
}

func TestRunOneUnknownNames(t *testing.T) {
	if _, err := RunOne(context.Background(), fastCfg(), "nosuch", "fft"); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := RunOne(context.Background(), fastCfg(), "baseline", "nosuch"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestGridShapeAndDeterminism(t *testing.T) {
	cfg := fastCfg()
	schemes := []string{"baseline", "xor", "column_associative"}
	benches := []string{"fft", "crc"}
	g1, err := Grid(context.Background(), cfg, schemes, benches)
	if err != nil {
		t.Fatal(err)
	}
	if len(g1) != 2 {
		t.Fatalf("grid rows = %d", len(g1))
	}
	for _, b := range benches {
		row, ok := g1[b]
		if !ok || len(row) != 3 {
			t.Fatalf("row %s = %v", b, row)
		}
		for name, r := range row {
			if r.Err != nil {
				t.Errorf("%s/%s: %v", b, name, r.Err)
			}
		}
	}
	// Parallel execution must not change results.
	g2, err := Grid(context.Background(), cfg, schemes, benches)
	if err != nil {
		t.Fatal(err)
	}
	for b, row := range g1 {
		for s, r := range row {
			if r2 := g2[b][s]; r.Counters != r2.Counters {
				t.Errorf("%s/%s not deterministic: %+v vs %+v", b, s, r.Counters, r2.Counters)
			}
		}
	}
}

func TestGridUnknownNames(t *testing.T) {
	if _, err := Grid(context.Background(), fastCfg(), []string{"nosuch"}, []string{"fft"}); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := Grid(context.Background(), fastCfg(), []string{"baseline"}, []string{"nosuch"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestReductionHelpers(t *testing.T) {
	row := map[string]Result{
		"baseline": {MissRate: 0.2, AMAT: 5, MissMoments: stats.Moments{Kurtosis: 10, Skewness: 2}},
		"xor":      {MissRate: 0.1, AMAT: 3, MissMoments: stats.Moments{Kurtosis: 5, Skewness: 1}},
	}
	mr, err := MissReductionVsBaseline(row, "baseline")
	if err != nil || mr["xor"] != 50 {
		t.Errorf("miss reduction = %v (%v)", mr, err)
	}
	ar, err := AMATReductionVsBaseline(row, "baseline")
	if err != nil || ar["xor"] != 40 {
		t.Errorf("AMAT reduction = %v (%v)", ar, err)
	}
	kc, err := MomentChangeVsBaseline(row, "baseline", func(m stats.Moments) float64 { return m.Kurtosis })
	if err != nil || kc["xor"] != -50 {
		t.Errorf("kurtosis change = %v (%v)", kc, err)
	}
	if _, err := MissReductionVsBaseline(row, "nosuch"); err == nil {
		t.Error("missing baseline accepted")
	}
	if _, err := AMATReductionVsBaseline(row, "nosuch"); err == nil {
		t.Error("missing baseline accepted")
	}
	if _, err := MomentChangeVsBaseline(row, "nosuch", func(m stats.Moments) float64 { return m.Kurtosis }); err == nil {
		t.Error("missing baseline accepted")
	}
}

// TestRunTrace runs a caller-supplied trace through RunStream.
func TestRunTrace(t *testing.T) {
	tr := make(trace.Trace, 0, 1000)
	for i := 0; i < 500; i++ {
		tr = append(tr,
			trace.Access{Addr: 0, Kind: trace.Read},
			trace.Access{Addr: addr.Addr(0x8000), Kind: trace.Read})
	}
	base, err := RunStream(context.Background(), fastCfg(), "baseline", "pair", tr.Stream())
	if err != nil {
		t.Fatal(err)
	}
	col, err := RunStream(context.Background(), fastCfg(), "column_associative", "pair", tr.Stream())
	if err != nil {
		t.Fatal(err)
	}
	if col.MissRate >= base.MissRate {
		t.Errorf("column %v >= baseline %v on conflict pair", col.MissRate, base.MissRate)
	}
	if base.Benchmark != "pair" {
		t.Errorf("label = %q", base.Benchmark)
	}
}

func TestNormalizedDefaults(t *testing.T) {
	var zero Config
	n := zero.normalized()
	d := Default()
	if n.Layout != d.Layout || n.TraceLength != d.TraceLength || n.Seed != d.Seed ||
		n.MissPenalty != d.MissPenalty || n.Parallelism <= 0 {
		t.Errorf("normalized zero config = %+v", n)
	}
}

func TestFullyAssociativeIsLowerEnvelopeAcrossRoster(t *testing.T) {
	// On a conflict-dominated benchmark, no scheme of equal capacity beats
	// the fully-associative LRU bound by much (it can differ slightly from
	// optimal, but must be the floor in practice here).
	cfg := fastCfg()
	g, err := Grid(context.Background(), cfg, []string{"baseline", "xor", "column_associative", "fully_associative"}, []string{"sha"})
	if err != nil {
		t.Fatal(err)
	}
	row := g["sha"]
	fa := row["fully_associative"].MissRate
	for _, s := range []string{"baseline", "xor", "column_associative"} {
		if row[s].MissRate < fa-0.01 {
			t.Errorf("%s miss rate %v below FA bound %v", s, row[s].MissRate, fa)
		}
	}
}
