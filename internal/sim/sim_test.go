package sim

import (
	"context"
	"strings"
	"testing"
)

func TestLoadAndDefaults(t *testing.T) {
	s, err := Load(strings.NewReader(`{"workload":"fft","scheme":"xor"}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Workload != "fft" || s.Scheme != "xor" {
		t.Errorf("parsed: %+v", s)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"workload":"fft","bogus":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := Load(strings.NewReader(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestValidateErrors(t *testing.T) {
	cases := map[string]Spec{
		"neither workload nor threads": {},
		"both workload and threads":    {Workload: "fft", Threads: []string{"sha"}},
		"unknown workload":             {Workload: "nosuch"},
		"unknown scheme":               {Workload: "fft", Scheme: "nosuch"},
		"unknown thread benchmark":     {Threads: []string{"nosuch", "fft"}},
		"one thread":                   {Threads: []string{"fft"}},
		"indexing count mismatch":      {Threads: []string{"fft", "sha"}, ThreadIndexing: []string{"xor"}},
		"unknown index func":           {Threads: []string{"fft", "sha"}, ThreadIndexing: []string{"xor", "nosuch"}},
		"bad multiplier":               {Threads: []string{"fft", "sha"}, ThreadIndexing: []string{"xor", "odd_multiplier:abc"}},
		"bad geometry":                 {Workload: "fft", L1D: CacheSpec{KB: 32, BlockBytes: 32, Ways: 3}},
		"negative length":              {Workload: "fft", TraceLength: -1},
	}
	for name, s := range cases {
		t.Run(name, func(t *testing.T) {
			if err := s.Validate(); err == nil {
				t.Errorf("Validate(%+v) accepted", s)
			}
		})
	}
}

func TestRunSingleWorkload(t *testing.T) {
	s := Spec{Workload: "sha", Scheme: "xor", TraceLength: 30_000}
	rep, err := s.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accesses != 30_000 || rep.Workload != "sha" || rep.Scheme != "xor" {
		t.Errorf("report: %+v", rep)
	}
	if rep.MissRate <= 0 || rep.MissRate >= 1 {
		t.Errorf("miss rate = %v", rep.MissRate)
	}
	if rep.CyclesPerAccess < 1 || rep.AMAT < 1 {
		t.Errorf("latencies: %+v", rep)
	}
	// Baseline on the same workload must miss more.
	base := Spec{Workload: "sha", Scheme: "baseline", TraceLength: 30_000}
	brep, err := base.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.MissRate >= brep.MissRate {
		t.Errorf("xor %v not below baseline %v", rep.MissRate, brep.MissRate)
	}
}

func TestRunWithL2AndSplitL1(t *testing.T) {
	s := Spec{
		Workload:       "dijkstra",
		L1I:            &CacheSpec{},
		L2:             &CacheSpec{},
		FetchesPerData: 3,
		TraceLength:    40_000,
	}
	rep, err := s.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.L2MissRate <= 0 || rep.L2MissRate > 1 {
		t.Errorf("L2 miss rate = %v", rep.L2MissRate)
	}
	if rep.L1IMissRate <= 0 || rep.L1IMissRate > 0.05 {
		t.Errorf("L1I miss rate = %v, want small but nonzero", rep.L1IMissRate)
	}
	// With a 3:1 fetch ratio the L1D sees only a quarter of the stream.
	if rep.Accesses >= 40_000/3 {
		t.Errorf("L1D accesses = %d, want ≈ a quarter of the stream", rep.Accesses)
	}
}

func TestRunSMT(t *testing.T) {
	s := Spec{
		Threads:        []string{"fft", "sha"},
		ThreadIndexing: []string{"odd_multiplier:9", "odd_multiplier:21"},
		TraceLength:    20_000,
	}
	rep, err := s.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accesses != 40_000 {
		t.Errorf("accesses = %d", rep.Accesses)
	}
	if !strings.Contains(rep.Scheme, "odd_multiplier_9") {
		t.Errorf("scheme label = %q", rep.Scheme)
	}
	if rep.Workload != "fft+sha" {
		t.Errorf("workload label = %q", rep.Workload)
	}
	// All-modulo variant misses more.
	base := Spec{Threads: []string{"fft", "sha"}, TraceLength: 20_000}
	brep, err := base.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.MissRate >= brep.MissRate {
		t.Errorf("mixed indexing %v not below all-modulo %v", rep.MissRate, brep.MissRate)
	}
}

func TestParseIndexFuncVariants(t *testing.T) {
	s := Spec{Threads: []string{"fft", "sha", "crc", "susan", "milc"},
		ThreadIndexing: []string{"modulo", "xor", "prime_modulo", "polynomial", "odd_multiplier"},
		TraceLength:    1_000}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if _, err := s.RunContext(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
}
