package cacheuniformity

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/assoc"
	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/core"
	"cacheuniformity/internal/dynamic"
	"cacheuniformity/internal/experiments"
	"cacheuniformity/internal/indexing"
	"cacheuniformity/internal/registry"
	"cacheuniformity/internal/smt"
	"cacheuniformity/internal/trace"
	"cacheuniformity/internal/workload"
)

// update regenerates the golden figure tables:
//
//	go test -run TestGolden -update .
var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenCfg is the fixed configuration behind the golden tables.  Keep it
// small: golden tests guard against accidental behavioural drift, not
// statistical significance.
func goldenCfg() core.Config {
	cfg := core.Default()
	cfg.TraceLength = 20_000
	return cfg
}

// TestGoldenFigures locks the exact rendering of every figure.
// Any change to a simulator, an index function, a workload generator or
// the RNG shows up here first — if the change is intended, refresh with
// -update and review the diff like any other code change.
func TestGoldenFigures(t *testing.T) {
	for _, fig := range experiments.All() {
		id := fig.ID
		t.Run(filepath.Base(goldenPath(id)), func(t *testing.T) {
			t.Parallel()
			tbl, err := fig.Run(context.Background(), goldenCfg())
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			if err := tbl.WriteText(&sb); err != nil {
				t.Fatal(err)
			}
			got := sb.String()
			path := goldenPath(id)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run `go test -run TestGolden -update .`): %v", err)
			}
			if got != string(want) {
				t.Errorf("figure %d drifted from golden output.\n--- got ---\n%s--- want ---\n%s", id, got, want)
			}
		})
	}
}

func goldenPath(id int) string {
	return filepath.Join("testdata", "golden", fmt.Sprintf("fig%02d.txt", id))
}

// goldenModel is one model TestGoldenModels pins; a model that fails to
// build is pinned as its error.
type goldenModel struct {
	name  string
	model cache.Model
	err   error
}

// goldenModels lists every registered scheme kind at its default
// declaration, plus the SMT models the Figure 13 and 14 experiments
// build by hand and the hand-built variants of goldenVariants.
func goldenModels(l addr.Layout, profile trace.StreamFunc) []goldenModel {
	var out []goldenModel
	for _, k := range registry.SchemeKinds() {
		s, err := registry.ResolveScheme(registry.Decl{Kind: k.Kind})
		if err != nil {
			out = append(out, goldenModel{k.Kind, nil, err})
			continue
		}
		m, err := s.Build(l, profile)
		out = append(out, goldenModel{k.Kind, m, err})
	}
	mod := indexing.NewModulo(l)
	m, err := smt.NewSharedIndexCache(l, []indexing.Func{mod, mod})
	out = append(out, goldenModel{"smt_shared/modulo,modulo", m, err})
	m, err = smt.NewSharedIndexCache(l, []indexing.Func{indexing.MustOddMultiplier(l, 9), indexing.MustOddMultiplier(l, 21)})
	out = append(out, goldenModel{"smt_shared/odd9,odd21", m, err})
	for _, threads := range []int{2, 4} {
		p, err := smt.NewPartitionedCache(l, threads)
		out = append(out, goldenModel{fmt.Sprintf("smt_partitioned/%d", threads), p, err})
		ap, err := smt.NewAdaptivePartitioned(l, threads, assoc.AdaptiveConfig{})
		out = append(out, goldenModel{fmt.Sprintf("smt_adaptive_partitioned/%d", threads), ap, err})
	}
	return append(out, goldenVariants(l)...)
}

// goldenVariants builds the per-access models away from their registry
// defaults: other primary indexes, longer partner chains, tables small
// enough to overflow, more banks and ways, another replacement policy,
// shorter epochs and a smaller fully-associative capacity.
func goldenVariants(l addr.Layout) []goldenModel {
	var out []goldenModel
	add := func(name string, m cache.Model, err error) {
		out = append(out, goldenModel{name, m, err})
	}
	xor, odd := indexing.NewXOR(l), indexing.MustOddMultiplier(l, 21)
	col, err := assoc.NewColumnAssociative(l, xor)
	add("column_associative/xor", col, err)
	col, err = assoc.NewColumnAssociative(l, odd)
	add("column_associative/odd_multiplier", col, err)
	pseudo, err := assoc.NewPseudoAssociative(l, xor)
	add("pseudo_associative/xor", pseudo, err)
	partner, err := assoc.NewPartnerCache(l, nil, assoc.PartnerConfig{MaxChain: 3, Epoch: 512})
	add("partner/chain3_epoch512", partner, err)
	adaptive, err := assoc.NewAdaptiveCache(l, nil, assoc.AdaptiveConfig{SHTEntries: 8, OUTEntries: 8})
	add("adaptive/sht8_out8", adaptive, err)
	bank, err := addr.NewLayout(l.BlockBytes(), l.Sets()/4, l.AddressBits)
	if err != nil {
		panic(err) // the golden layout has sets to spare
	}
	skewed, err := assoc.NewSkewedAssociative(bank, []indexing.Func{
		indexing.NewModulo(bank), indexing.NewXOR(bank),
		indexing.MustOddMultiplier(bank, 9), indexing.MustOddMultiplier(bank, 21),
	})
	add("skewed/4banks", skewed, err)
	bc, err := assoc.NewBCache(l, assoc.BCacheConfig{MappingFactor: 4, Associativity: 4})
	add("b_cache/mf4_bas4", bc, err)
	bc, err = assoc.NewBCache(l, assoc.BCacheConfig{Replacement: cache.FIFO{}})
	add("b_cache/fifo", bc, err)
	temp, err := dynamic.NewTemperatureCache(l, dynamic.TemperatureConfig{Epoch: 1024})
	add("temperature/epoch1024", temp, err)
	fa, err := cache.NewFullyAssociative(l, 64, cache.LRU{})
	add("fully_associative/64", fa, err)
	return out
}

// TestGoldenModels pins every model's counters and per-set counts, byte
// for byte, on one kernel and two round-robin thread mixes: a refactor of
// a model's internals must leave testdata/golden/models.txt unchanged.
func TestGoldenModels(t *testing.T) {
	cfg := goldenCfg().Canonical()
	workloads := [][]string{{"fft"}, {"fft", "susan"}, {"fft", "basicmath", "patricia", "susan"}}
	var sb strings.Builder
	for _, mix := range workloads {
		stream := func() trace.BatchReader {
			rs := make([]trace.BatchReader, len(mix))
			for i, name := range mix {
				rs[i] = workload.MustLookup(name).Stream(cfg.Seed+uint64(i), cfg.TraceLength)
			}
			if len(rs) == 1 {
				return rs[0]
			}
			return trace.RoundRobinBatch(rs...)
		}
		label := strings.Join(mix, "+")
		for _, gm := range goldenModels(cfg.Layout, stream) {
			if gm.err != nil {
				fmt.Fprintf(&sb, "%s %s error: %v\n", gm.name, label, gm.err)
				continue
			}
			c, err := cache.RunBatched(gm.model, stream(), nil)
			if err != nil {
				t.Fatalf("%s on %s: %v", gm.name, label, err)
			}
			fmt.Fprintf(&sb, "%s %s %+v perset=%s\n", gm.name, label, c, perSetDigest(gm.model.PerSet()))
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "golden", "models.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run TestGolden -update .`): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("models drifted from golden output at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("models golden output has %d lines, want %d", len(gl), len(wl))
	}
}

// perSetDigest is the SHA-256 of a model's per-set counts, little-endian.
func perSetDigest(ps cache.PerSet) string {
	h := sha256.New()
	for _, s := range [][]uint64{ps.Accesses, ps.Hits, ps.Misses} {
		if err := binary.Write(h, binary.LittleEndian, s); err != nil {
			panic(err) // a hash never fails to write
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
