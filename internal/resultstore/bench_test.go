package resultstore

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
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

// benchManifestCell is the cell the manifest benchmarks encode and
// decode: xor on crc at the default 1024-set layout.
func benchManifestCell(b *testing.B) (string, core.Config, core.Result) {
	b.Helper()
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
	return key, cfg, res
}

// BenchmarkEncodeManifest measures the disk tier's encode alone: one
// 1024-set manifest and its reply rendering, as a computed cell's are
// written.  The compression and the write are not timed.
func BenchmarkEncodeManifest(b *testing.B) {
	key, cfg, res := benchManifestCell(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, _, err := encodeManifest(key, CodeVersion, cfg, res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeManifest measures the disk tier's decode alone: one
// 1024-set manifest, as encodeManifest writes it for a computed cell,
// parsed and verified into a result and its reply rendering.  The read
// and the inflate are not timed (BenchmarkCellWarmDisk has them).
func BenchmarkDecodeManifest(b *testing.B) {
	key, cfg, res := benchManifestCell(b)
	data, _, err := encodeManifest(key, CodeVersion, cfg, res)
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

// BenchmarkGCForRoom measures the quota GC on the write path: one op is
// a publish into a full store that must collect before its artifact
// fits.  The store holds all 512 shard directories and ~400 artifacts
// (a manifest or, one in four, a compiled trace, ~5 KiB each) under a
// 2 MiB quota.  Refilling the store to the brink between ops is not
// timed.  index_B/artifact is the heap the recency index holds per
// artifact, measured over a separate index of 1<<14 entries.
func BenchmarkGCForRoom(b *testing.B) {
	const quota = 2 << 20
	perArtifact := indexBytesPerArtifact()
	dir := b.TempDir()
	for i := range 256 {
		for _, shard := range []string{filepath.Join(dir, fmt.Sprintf("%02x", i)), filepath.Join(dir, traceDirName, fmt.Sprintf("%02x", i))} {
			if err := os.MkdirAll(shard, 0o755); err != nil {
				b.Fatal(err)
			}
		}
	}
	s, err := Open(Options{Dir: dir, QuotaBytes: quota, MemoryEntries: -1})
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 5000)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range payload {
		payload[i] = byte(rng.Uint32())
	}
	zdata, err := deflate(payload)
	if err != nil {
		b.Fatal(err)
	}
	size := int64(len(zdata))
	next := 0
	publish := func() {
		ref := artifactRef{synthKey(next), tierManifest}
		if next%4 == 3 {
			ref.tier = tierTrace
		}
		next++
		if err := s.publish(ref, payload); err != nil {
			b.Fatal(err)
		}
	}
	for s.gcRuns.Load() == 0 {
		publish()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		for s.ledger.bytes.Load()+size <= quota {
			publish()
		}
		runs := s.gcRuns.Load()
		b.StartTimer()
		publish()
		if s.gcRuns.Load() != runs+1 {
			b.Fatal("the publish into a full store ran no GC")
		}
	}
	b.StopTimer()
	b.ReportMetric(perArtifact, "index_B/artifact")
}

// indexBytesPerArtifact returns the live heap a recency index holds per
// entry, keys included, at 1<<14 entries of 64-hex-digit keys.
func indexBytesPerArtifact() float64 {
	const n = 1 << 14
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := &recency{mtimes: make(map[artifactRef]int64)}
	for i := range n {
		r.record(artifactRef{synthKey(i), artifactTier(i % 3)}, int64(i))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(r)
	return float64(after.HeapAlloc-before.HeapAlloc) / n
}
