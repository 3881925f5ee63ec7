package resultstore

import (
	"context"
	"testing"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/core"
	"cacheuniformity/internal/registry"
)

// benchConfig sizes the cold simulation realistically: the store's value
// proposition is measured against a meaningful trace, not a toy one.  50k
// accesses keep the cold benchmark around a couple of milliseconds while
// the warm hit stays in microseconds (dominated by the canonical-JSON key
// hash), so the >= 100x CI gate has a wide margin.
func benchConfig() core.Config {
	cfg := core.Default()
	cfg.TraceLength = 50_000
	cfg.Layout = addr.MustLayout(32, 256, 32)
	return cfg
}

// BenchmarkCellCold measures a store miss: full simulation plus manifest
// write.  Each iteration opens a fresh memory-only store so the cell is
// always cold.
func BenchmarkCellCold(b *testing.B) {
	cfg := benchConfig()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := Open(Options{MemoryEntries: 8})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := s.Cell(ctx, cfg, "xor", "crc"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCellWarmMemory measures the tier-1 hit path — the latency a
// warmed simd server pays per cell.  The cold/warm ratio against
// BenchmarkCellCold is the store's reason to exist; CI gates on it being
// at least 100x.
func BenchmarkCellWarmMemory(b *testing.B) {
	cfg := benchConfig()
	ctx := context.Background()
	s, err := Open(Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := s.Cell(ctx, cfg, "xor", "crc"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, origin, err := s.Cell(ctx, cfg, "xor", "crc")
		if err != nil {
			b.Fatal(err)
		}
		if origin != OriginMemory {
			b.Fatalf("origin = %s, want memory", origin)
		}
	}
}

// BenchmarkCellWarmDisk measures the tier-2 hit path: manifest read,
// decode, and verification, with the memory tier disabled so every
// iteration goes to disk.
func BenchmarkCellWarmDisk(b *testing.B) {
	cfg := benchConfig()
	ctx := context.Background()
	dir := b.TempDir()
	warm, err := Open(Options{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := warm.Cell(ctx, cfg, "xor", "crc"); err != nil {
		b.Fatal(err)
	}
	s, err := Open(Options{Dir: dir, MemoryEntries: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, origin, err := s.Cell(ctx, cfg, "xor", "crc")
		if err != nil {
			b.Fatal(err)
		}
		if origin != OriginDisk {
			b.Fatalf("origin = %s, want disk", origin)
		}
	}
}

// BenchmarkCellKey measures the key layer of a request: resolving both
// declarations and deriving the store key, for catalog names and for
// inline declarations with parameters.
func BenchmarkCellKey(b *testing.B) {
	cfg := benchConfig()
	for _, bc := range []struct {
		name          string
		scheme, bench registry.Decl
	}{
		{"catalog", registry.Decl{Name: "xor"}, registry.Decl{Name: "crc"}},
		{"inline", registry.Decl{Kind: "victim", Params: registry.Params{"entries": 32}},
			registry.Decl{Kind: "zipf", Params: registry.Params{"blocks": 32768, "skew": 1.2}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := CellKeyDecl(cfg, bc.scheme, bc.bench, CodeVersion); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeManifest measures the disk tier's decode alone: one
// 1024-set manifest, as encodeManifest writes it for a computed cell,
// parsed and verified into a result and its reply rendering.  The read
// and the inflate are not timed (BenchmarkCellWarmDisk has them).
func BenchmarkDecodeManifest(b *testing.B) {
	cfg := core.Default()
	cfg.TraceLength = 20_000
	res, err := core.RunOne(context.Background(), cfg, "xor", "crc")
	if err != nil {
		b.Fatal(err)
	}
	key, err := cellKey(cfg, "xor", "crc", CodeVersion)
	if err != nil {
		b.Fatal(err)
	}
	data, err := encodeManifest(key, CodeVersion, cfg, res)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, rendering, err := decodeManifest(data, key, CodeVersion); err != nil || rendering == nil {
			b.Fatalf("decode: rendering %d bytes, err %v", len(rendering), err)
		}
	}
}
