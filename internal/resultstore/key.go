package resultstore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"cacheuniformity/internal/core"
	"cacheuniformity/internal/registry"
	"cacheuniformity/internal/report"
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

// keyPayload is the hashed identity of a cell.  It is encoded with the
// canonical JSON codec, so neither map iteration order nor struct field
// order nor float formatting can perturb the hash.  The scheme and
// benchmark are canonical declarations (defaults filled, parameters
// normalised), so every spelling of the same semantics — a bare name, a
// kind with defaults elided, a kind with defaults written out — hashes
// identically.
type keyPayload struct {
	Config    core.Config   `json:"config"`
	Scheme    registry.Decl `json:"scheme"`
	Benchmark registry.Decl `json:"benchmark"`
	Version   string        `json:"version"`
}

// CellKeyDecl returns the content address of one (config, scheme
// declaration, benchmark declaration) cell under the given code version:
// the hex SHA-256 of the canonical JSON of the canonicalised identity.
// Both declarations are resolved through the registry first, so
// semantically equal spellings share a key and invalid declarations fail
// here with the offending field named.  Configs that differ only in
// execution-steering fields (Parallelism, Traces, Memo) map to the same
// key; see core.Config.Canonical.
func CellKeyDecl(cfg core.Config, scheme, bench registry.Decl, version string) (string, error) {
	sc, err := registry.ResolveScheme(scheme)
	if err != nil {
		return "", fmt.Errorf("scheme: %w", err)
	}
	_, bd, err := registry.ResolveWorkload(bench)
	if err != nil {
		return "", fmt.Errorf("benchmark: %w", err)
	}
	return cellKeyCanonical(cfg, sc.Decl, bd, version)
}

// CellKey is CellKeyDecl over default-roster names: the scheme name
// resolves to its registry declaration and the benchmark name to its
// kernel declaration, so name-based requests and the equivalent declared
// compositions address the same cell.
func CellKey(cfg core.Config, scheme, bench, version string) (string, error) {
	return CellKeyDecl(cfg, registry.Decl{Name: scheme}, registry.Decl{Name: bench}, version)
}

// cellKeyCanonical hashes an identity whose declarations are already
// canonical (returned by registry.ResolveScheme / ResolveWorkload) —
// the internal fast path that skips re-resolution.
func cellKeyCanonical(cfg core.Config, scheme, bench registry.Decl, version string) (string, error) {
	payload := keyPayload{
		Config:    cfg.Canonical(),
		Scheme:    scheme,
		Benchmark: bench,
		Version:   version,
	}
	b, err := report.CanonicalJSON(payload)
	if err != nil {
		return "", fmt.Errorf("resultstore: encode key: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
