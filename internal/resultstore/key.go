package resultstore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"sync"

	"cacheuniformity/internal/core"
	"cacheuniformity/internal/registry"
	"cacheuniformity/internal/report"
	"cacheuniformity/internal/workload"
)

// CodeVersion tags store keys and manifests with the simulator revision
// whose results they hold.  Bump it whenever a change alters what any
// scheme computes — new replacement behaviour, trace-generation changes,
// counter semantics — and every stale entry silently becomes a miss.
// Refactors that preserve results (removing an engine or a code path
// whose output the remaining one matches byte for byte, for example) must
// NOT bump it, or a warm store is thrown away for nothing;
// TestCellKeyGolden pins two keys to catch an accidental change.
//
// Version "2": cell identities changed from (scheme name, benchmark
// name) strings to canonical scheme/benchmark declarations, so declared
// compositions (roster files, inline simd request bodies) and the
// default roster share one key space.
//
// Version "3": the victim cache's per-set counts became its own, so a
// victim-buffer hit counts as a hit in its set; they used to be the
// direct-mapped primary's, which counted it as a miss.
const CodeVersion = "3"

// Resolved is a cell's scheme and benchmark declarations resolved once
// through the registry, with the canonical JSON of each canonical
// declaration: the bytes the cell's key hashes and a /v1/cell reply
// echoes.  The byte slices may be shared; they are read-only.
type Resolved struct {
	Scheme core.Scheme
	Spec   workload.Spec
	// BenchDecl is the benchmark's canonical declaration; the scheme's
	// is Scheme.Decl.
	BenchDecl  registry.Decl
	SchemeJSON []byte
	BenchJSON  []byte
}

// Resolve resolves a cell's declarations.  Errors name the declaration
// ("scheme: ...", "benchmark: ...") and its offending field.
func Resolve(scheme, bench registry.Decl) (Resolved, error) {
	sc, sj, err := resolveScheme(scheme)
	if err != nil {
		return Resolved{}, fmt.Errorf("scheme: %w", err)
	}
	spec, bd, bj, err := resolveBench(bench)
	if err != nil {
		return Resolved{}, fmt.Errorf("benchmark: %w", err)
	}
	return Resolved{Scheme: sc, Spec: spec, BenchDecl: bd, SchemeJSON: sj, BenchJSON: bj}, nil
}

// resolveScheme is registry.ResolveScheme plus the canonical JSON of
// the resolved declaration.
func resolveScheme(d registry.Decl) (core.Scheme, []byte, error) {
	sc, err := registry.ResolveScheme(d)
	if err != nil {
		return core.Scheme{}, nil, err
	}
	j, err := declJSON(catalog().schemes, d, sc.Decl)
	return sc, j, err
}

// resolveBench is registry.ResolveWorkload plus the canonical JSON of
// the canonical declaration it returns.
func resolveBench(d registry.Decl) (workload.Spec, registry.Decl, []byte, error) {
	spec, canon, err := registry.ResolveWorkload(d)
	if err != nil {
		return workload.Spec{}, registry.Decl{}, nil, err
	}
	j, err := declJSON(catalog().benches, d, canon)
	return spec, canon, j, err
}

// declJSON returns the canonical JSON of canon, the declaration d
// resolved to: from the catalog table when d is a bare catalog name,
// computed here otherwise.
func declJSON(table map[string][]byte, d, canon registry.Decl) ([]byte, error) {
	if d.Kind == "" {
		if j, ok := table[d.Name]; ok {
			return j, nil
		}
	}
	return canon.CanonicalJSON()
}

// catalogJSON holds the canonical JSON of the declaration behind every
// bare catalog name: the default roster's schemes ("xor") and the
// registered kernels ("crc").
type catalogJSON struct{ schemes, benches map[string][]byte }

// catalog builds the table once per process.  A name whose encoding
// fails is left out and takes declJSON's computed path, which reports
// the error.
var catalog = sync.OnceValue(func() catalogJSON {
	c := catalogJSON{schemes: map[string][]byte{}, benches: map[string][]byte{}}
	for _, sc := range registry.DefaultSchemes() {
		if j, err := sc.Decl.CanonicalJSON(); err == nil {
			c.schemes[sc.Name] = j
		}
	}
	for _, name := range workload.Names("") {
		if _, canon, err := registry.ResolveWorkload(registry.Decl{Name: name}); err == nil {
			if j, err := canon.CanonicalJSON(); err == nil {
				c.benches[name] = j
			}
		}
	}
	return c
})

// CellKeyDecl returns the content address of one (config, scheme
// declaration, benchmark declaration) cell under the given code version:
// the hex SHA-256 of the canonical JSON of the canonicalised identity.
// Both declarations are resolved through the registry first, so
// semantically equal spellings share a key and invalid declarations fail
// here with the offending field named.  Configs that differ only in
// execution-steering fields (Parallelism, Traces, Memo) map to the same
// key; see core.Config.Canonical.
func CellKeyDecl(cfg core.Config, scheme, bench registry.Decl, version string) (string, error) {
	r, err := Resolve(scheme, bench)
	if err != nil {
		return "", err
	}
	return CellKeyCanonical(cfg, r.SchemeJSON, r.BenchJSON, version)
}

// CellKeyCanonical is CellKeyDecl over declarations already resolved to
// their canonical JSON (Resolve), for callers that resolved them once
// and must not pay for it again.
func CellKeyCanonical(cfg core.Config, schemeJSON, benchJSON []byte, version string) (string, error) {
	var buf [512]byte
	b, err := appendKeyPayload(buf[:0], cfg, schemeJSON, benchJSON, version)
	if err != nil {
		return "", fmt.Errorf("resultstore: encode key: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// appendKeyPayload appends a cell's hashed identity: the canonical JSON
// of {"benchmark", "config" (cfg.Canonical()), "scheme", "version"},
// with the two canonical declarations given as their canonical JSON, so
// every spelling of the same semantics hashes identically.  It writes
// keys in sorted order, integers verbatim, MissPenalty through
// report.AppendFloat and the version through report.AppendString: byte
// for byte what report.CanonicalJSON gives the struct form of the
// payload (keyPayload in key_test.go; FuzzCellKeyPayload and
// TestKeyPayloadFields hold the writer to it).
func appendKeyPayload(b []byte, cfg core.Config, schemeJSON, benchJSON []byte, version string) ([]byte, error) {
	c := cfg.Canonical()
	b = append(b, `{"benchmark":`...)
	b = append(b, benchJSON...)
	b = append(b, `,"config":{"layout":{"AddressBits":`...)
	b = strconv.AppendUint(b, uint64(c.Layout.AddressBits), 10)
	b = append(b, `,"IndexBits":`...)
	b = strconv.AppendUint(b, uint64(c.Layout.IndexBits), 10)
	b = append(b, `,"OffsetBits":`...)
	b = strconv.AppendUint(b, uint64(c.Layout.OffsetBits), 10)
	b = append(b, `},"miss_penalty":`...)
	b, err := report.AppendFloat(b, c.MissPenalty)
	if err != nil {
		return nil, err
	}
	b = append(b, `,"seed":`...)
	b = strconv.AppendUint(b, c.Seed, 10)
	b = append(b, `,"trace_length":`...)
	b = strconv.AppendInt(b, int64(c.TraceLength), 10)
	b = append(b, `},"scheme":`...)
	b = append(b, schemeJSON...)
	b = append(b, `,"version":`...)
	if b, err = report.AppendString(b, version); err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}
