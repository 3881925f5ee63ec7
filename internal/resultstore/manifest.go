package resultstore

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/core"
	"cacheuniformity/internal/report"
)

// manifest is the on-disk representation of one cached cell.  It embeds
// everything needed to audit an entry by eye — the canonical config,
// names, and version — plus the key it was stored under, which load-time
// verification checks against the filename so a copied or tampered file
// cannot impersonate another cell.  Manifests are canonical JSON:
// re-running an experiment rewrites byte-identical files, so a manifest
// payload diffs cleanly under git (the DEFLATE wrapper is likewise
// deterministic for identical payloads).
type manifest struct {
	Key       string       `json:"key"`
	Version   string       `json:"version"`
	Scheme    string       `json:"scheme"`
	Benchmark string       `json:"benchmark"`
	Config    core.Config  `json:"config"`
	Result    storedResult `json:"result"`
}

// storedResult serialises core.Result.  The embedded struct contributes
// every field except Err, which the shadow field suppresses: only
// successful results are persisted, so Err is always nil and an `error`
// interface would not round-trip through JSON anyway.
type storedResult struct {
	core.Result
	Err json.RawMessage `json:"Err,omitempty"`
}

// Manifest filename grammar.  New manifests are written DEFLATE-
// compressed under manifestExt; seed-era stores hold uncompressed
// legacyManifestExt files, which remain readable and are migrated to
// the compressed form in place the first time they are read.
const (
	manifestExt       = ".json.z"
	legacyManifestExt = ".json"
)

// manifestPath shards manifests into 256 two-hex-digit subdirectories so
// a large store does not degrade into one directory with 10^5 entries.
func (s *Store) manifestPath(key string) string {
	return filepath.Join(s.dir, key[:2], key+manifestExt)
}

// legacyManifestPath is the uncompressed pre-lifecycle location.
func (s *Store) legacyManifestPath(key string) string {
	return filepath.Join(s.dir, key[:2], key+legacyManifestExt)
}

// manifestKeys is manifest's json keys in the order encodeManifest
// writes them: sorted, as canonical JSON orders them.
var manifestKeys = [...]string{"benchmark", "config", "key", "result", "scheme", "version"}

// encodeManifest writes the manifest of one cell and returns it with
// the result's reply rendering, which the manifest's result value is
// built from.  The bytes are report.CanonicalJSONIndent of the manifest
// struct with indent "  ", plus a newline (TestManifestEncodeMatchesOracle
// and FuzzManifestEncode hold the writer to that encoder), but only the
// result without its per-set arrays and the config pass through the
// canonical codec: names through report.AppendString, the arrays
// straight from their slices by AppendResult.  A non-finite value in
// the result or the config is an error, as in the codec.
func encodeManifest(key, version string, cfg core.Config, res core.Result) (data, rendering []byte, err error) {
	if rendering, err = renderResult(res); err != nil {
		return nil, nil, fmt.Errorf("resultstore: encode manifest: %w", err)
	}
	config, err := report.CanonicalJSON(cfg.Canonical())
	if err != nil {
		return nil, nil, fmt.Errorf("resultstore: encode manifest: %w", err)
	}
	// ~16 bytes per count: the line break, depth 4's eight spaces, a
	// comma and a few digits; append grows the buffer for longer counts.
	n := len(res.PerSet.Accesses) + len(res.PerSet.Hits) + len(res.PerSet.Misses)
	b := make([]byte, 0, len(rendering)+2*len(config)+16*n+512)
	b = append(b, '{')
	for i, k := range manifestKeys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n  \""...)
		b = append(b, k...)
		b = append(b, "\": "...)
		switch k {
		case "benchmark":
			b, err = report.AppendString(b, res.Benchmark)
		case "config":
			b, err = report.AppendIndented(b, config)
		case "key":
			b, err = report.AppendString(b, key)
		case "result":
			b, err = AppendResult(b, rendering, &res.PerSet)
		case "scheme":
			b, err = report.AppendString(b, res.Scheme)
		case "version":
			b, err = report.AppendString(b, version)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("resultstore: encode manifest: %w", err)
		}
	}
	return append(b, "\n}\n"...), rendering, nil
}

// deflaters pools flate compressors: a Writer carries ~600 KiB of
// dictionary state, and allocating one per artifact turns a million-cell
// soak into GC-assist work — Reset reuses the state for free.
var deflaters = sync.Pool{
	New: func() any {
		zw, err := flate.NewWriter(io.Discard, flate.BestSpeed)
		if err != nil {
			//lint:allow nopanic BestSpeed is a valid level; NewWriter rejects only invalid ones
			panic(err)
		}
		return zw
	},
}

// deflate compresses an artifact payload at BestSpeed — artifacts are
// written once and read many times, and canonical JSON deflates ~4x
// even at the cheapest level.
func deflate(data []byte) ([]byte, error) {
	var buf bytes.Buffer
	zw := deflaters.Get().(*flate.Writer)
	defer deflaters.Put(zw)
	zw.Reset(&buf)
	if _, err := zw.Write(data); err != nil {
		return nil, fmt.Errorf("resultstore: compress artifact: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("resultstore: compress artifact: %w", err)
	}
	return buf.Bytes(), nil
}

// encodeCell builds what storing a successful result needs: its reply
// rendering for the memory entry and, with a disk tier, its manifest.
// A result the codec cannot encode (a non-finite value) gets neither;
// with a disk tier that counts as a persist error.
func (s *Store) encodeCell(key string, cfg core.Config, res core.Result) (rendering, data []byte) {
	if s.dir == "" {
		// Without a manifest to fail there is nothing to count; the
		// missing rendering fails the cell's replies instead.
		rendering, _ = renderResult(res)
		return rendering, nil
	}
	data, rendering, err := encodeManifest(key, s.version, cfg, res)
	if err != nil {
		s.persistErrors.Add(1)
	}
	return rendering, data
}

// persist publishes data, an encoded manifest (nil when there is none),
// and retires any legacy uncompressed manifest for the key in the same
// publish.  A failure degrades the cell to memory-only rather than
// failing the request; the persist-error counter is the signal.
func (s *Store) persist(key string, data []byte) {
	if data == nil {
		return
	}
	if err := s.publish(artifactRef{key, tierManifest}, data); err != nil {
		s.persistErrors.Add(1)
	}
}

// publish is the one write path for on-disk artifacts, manifests and
// compiled traces alike.  The payload is compressed and its bytes
// reserved against the quota first — reserving may run GC, so it happens
// before the key's disk lock is taken (lock order gcMu → disk).  Then,
// under that lock, the artifact is written to its path by temp file +
// rename, the ledger settled (a replaced file's old size is refunded, a
// failed write releases the reservation) and the artifact indexed at
// its new mtime.  A crash mid-write leaves a *.tmp-* orphan for the
// next scrub and never a torn artifact under the final name; readers
// that race the rename see either nothing or the complete file.  A
// manifest publish then retires the key's legacy uncompressed form
// under the same lock.
func (s *Store) publish(ref artifactRef, payload []byte) error {
	zdata, err := deflate(payload)
	if err != nil {
		return err
	}
	if err := s.reserve(int64(len(zdata))); err != nil {
		return err
	}

	path := s.artifactPath(ref)
	mu := s.diskLock(ref.key)
	defer mu.Unlock()
	oldSize := fileSize(path)
	if err := writeFileAtomic(path, zdata); err != nil {
		s.release(int64(len(zdata)))
		return err
	}
	if oldSize >= 0 {
		s.ledger.bytes.Add(-oldSize)
	}
	s.recordMtime(ref, path)
	if ref.tier == tierManifest {
		s.unlink(artifactRef{ref.key, tierLegacy})
	}
	return nil
}

// unlink is the one remove path for on-disk artifacts: it removes the
// file, settles the ledger by its size and drops its index entry.  It
// returns the bytes freed, or -1 when the file was absent or the unlink
// failed.  An absent file's entry is dropped too, so the index never
// keeps a path that is gone; a failed unlink keeps the entry and leaves
// the ledger charged, which errs toward under-use, and the next Open's
// scrub reconciles it.  Callers hold the key's disk lock.
func (s *Store) unlink(ref artifactRef) int64 {
	path := s.artifactPath(ref)
	size := fileSize(path)
	if size < 0 {
		s.index.drop(ref)
		return -1
	}
	if err := osRemove(path); err != nil {
		return -1
	}
	s.ledger.bytes.Add(-size)
	s.index.drop(ref)
	return size
}

// fileSize returns a file's size, or -1 when it does not exist (or
// cannot be statted, which the callers treat the same way).
func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return -1
	}
	return st.Size()
}

// writeFileAtomic publishes data at path via temp file + rename,
// creating the parent directory when needed.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	tmp, err := os.CreateTemp(dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: write artifact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: close artifact: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: publish artifact: %w", err)
	}
	return nil
}

// errManifestMismatch marks a manifest that parsed but does not belong
// under the key or version it was found at.
var errManifestMismatch = errors.New("resultstore: manifest does not match its key")

// parseManifest decodes manifest bytes as json.Unmarshal into a manifest
// does (FuzzManifestDecode holds it to that).  A document in the layout
// encodeManifest writes is read in one pass by parseCanonical, which
// also returns the result's reply rendering; any other document — a
// hand-edited file, another writer's layout — goes through
// json.Unmarshal and has no rendering (decodeManifest makes one).
func parseManifest(data []byte) (manifest, []byte, error) {
	if m, rendering, ok := parseCanonical(data); ok {
		return m, rendering, nil
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return manifest{}, nil, fmt.Errorf("resultstore: parse manifest: %w", err)
	}
	return m, nil, nil
}

// resultOpen and resultClose bracket the top-level result value.
var (
	resultOpen  = []byte("\n  \"result\": ")
	resultClose = []byte("\n  }")
)

// perSetSentinel stands in for the per-set object in the rest of the
// document that unmarshalCut hands to json.Unmarshal.
var perSetSentinel = []byte(`"\u0000"`)

// manifestHead is manifest as parseCanonical decodes the rest of the
// document: the same fields, except that result.PerSet only records
// what was decoded into it.
type manifestHead struct {
	manifest
	Result struct {
		storedResult
		PerSet PerSetMark `json:"PerSet"`
	} `json:"result"`
}

// PerSetMark stands for result.PerSet in a document UnmarshalCut
// decodes: it counts the values json.Unmarshal decodes into it
// (case-insensitive key matches and null included) and records whether
// the last one was the sentinel that replaced the per-set object.
type PerSetMark struct {
	n        int
	sentinel bool
}

// UnmarshalJSON records one value decoded into the mark.
func (p *PerSetMark) UnmarshalJSON(b []byte) error {
	p.n++
	p.sentinel = bytes.Equal(b, perSetSentinel)
	return nil
}

// UnmarshalCut decodes data in one pass when its result.PerSet object is
// laid out as a manifest and a /v1/cell reply write it (AppendResult):
// the object is located by perSetSeps and its three arrays are parsed by
// parseCounts and returned; json.Unmarshal decodes only the rest of the
// document into v, with the object replaced by a sentinel.  mark is v's
// result.PerSet field.  The sentinel, found once in that rest and
// decoded as the only value of result.PerSet, proves the object is
// result's PerSet and that no other PerSet key, earlier or later, merges
// into or overrides it, so the decode equals json.Unmarshal's of the
// whole document with the object in place of the sentinel.  ok is false
// for any other document; v may then be partly written, and the caller
// decodes data its own way into a fresh value.
func UnmarshalCut(data []byte, v any, mark *PerSetMark) (ps cache.PerSet, ok bool) {
	ps, _, _, ok = unmarshalCut(data, v, mark)
	return ps, ok
}

// unmarshalCut is UnmarshalCut that also returns where the per-set
// member sat: from the newline before its key (at) to just past the
// comma after its object (end).
func unmarshalCut(data []byte, v any, mark *PerSetMark) (ps cache.PerSet, at, end int, ok bool) {
	if at = bytes.Index(data, perSetSeps[0]); at < 0 {
		return cache.PerSet{}, 0, 0, false
	}
	var counts [3][]uint64
	i := at + len(perSetSeps[0])
	for k := range counts {
		end := i + 4 // a null array
		if !isNull(data, i) {
			if end = bytes.IndexByte(data[i:], ']'); end < 0 {
				return cache.PerSet{}, 0, 0, false
			}
			end += i + 1
		}
		v, err := parseCounts(data[i:end])
		if err != nil || !bytes.HasPrefix(data[end:], perSetSeps[k+1]) {
			return cache.PerSet{}, 0, 0, false
		}
		counts[k], i = v, end+len(perSetSeps[k+1])
	}
	// The object runs from its brace to just before the closing
	// separator's comma.
	objStart, objEnd := at+len(perSetKey), i-1
	head := make([]byte, 0, objStart+len(perSetSentinel)+len(data)-objEnd)
	head = append(append(append(head, data[:objStart]...), perSetSentinel...), data[objEnd:]...)
	if bytes.Count(head, perSetSentinel) != 1 {
		return cache.PerSet{}, 0, 0, false
	}
	if err := json.Unmarshal(head, v); err != nil || mark.n != 1 || !mark.sentinel {
		return cache.PerSet{}, 0, 0, false
	}
	return cache.PerSet{Accesses: counts[0], Hits: counts[1], Misses: counts[2]}, at, i, true
}

// parseCanonical reads a manifest in encodeManifest's layout in one pass
// (unmarshalCut; json.Unmarshal decodes ~2 KB of a 1024-set manifest).
// ok is false for any other document; parseManifest then decides.
//
// rendering is result's value with its PerSet member cut out, copied
// out of data: in encodeManifest's layout that is byte for byte the
// reply rendering of the result (see lruEntry.render).
func parseCanonical(data []byte) (m manifest, rendering []byte, ok bool) {
	var h manifestHead
	ps, at, end, ok := unmarshalCut(data, &h, &h.Result.PerSet)
	if !ok {
		return manifest{}, nil, false
	}
	m = h.manifest
	m.Result = h.Result.storedResult
	m.Result.PerSet = ps

	if rs, re := bytes.LastIndex(data[:at], resultOpen), bytes.Index(data[end:], resultClose); rs >= 0 && re >= 0 {
		rs += len(resultOpen)
		re += end + len(resultClose)
		rendering = make([]byte, 0, at-rs+re-end)
		rendering = append(append(rendering, data[rs:at]...), data[end:re]...)
	}
	return m, rendering, true
}

// verify checks that a parsed manifest belongs to (key, version) and is
// internally consistent, returning its result.
func (m *manifest) verify(key, version string) (core.Result, error) {
	if m.Key != key || m.Version != version {
		return core.Result{}, errManifestMismatch
	}
	if m.Scheme == "" || m.Benchmark == "" {
		return core.Result{}, errManifestMismatch
	}
	res := m.Result.Result
	if res.Scheme != m.Scheme || res.Benchmark != m.Benchmark {
		return core.Result{}, errManifestMismatch
	}
	return res, nil
}

// decodeManifest parses manifest bytes and verifies they belong to
// (key, version), returning the result and its reply rendering: the
// manifest's own when parseManifest has one, else rendered from the
// result.  Any failure — truncation, corruption, a manifest copied to
// the wrong name, a stale code version — returns an error; the caller
// treats it as a miss, never as a fatal condition.
func decodeManifest(data []byte, key, version string) (core.Result, []byte, error) {
	m, rendering, err := parseManifest(data)
	if err != nil {
		return core.Result{}, nil, err
	}
	res, err := m.verify(key, version)
	if err != nil {
		return core.Result{}, nil, err
	}
	if rendering == nil {
		if rendering, err = renderResult(res); err != nil {
			return core.Result{}, nil, err
		}
	}
	return res, rendering, nil
}

// ParsePerSet decodes a JSON object of per-set arrays, a cache.PerSet as
// encoding/json writes it, as json.Unmarshal into a zero cache.PerSet
// decodes it, except that a repeated key's last value alone decides: the
// arrays go through parseCounts, not element by element through
// reflection.  An absent array stays nil.
func ParsePerSet(data []byte) (cache.PerSet, error) {
	var raw struct{ Accesses, Hits, Misses json.RawMessage }
	if err := json.Unmarshal(data, &raw); err != nil {
		return cache.PerSet{}, fmt.Errorf("resultstore: parse per-set counts: %w", err)
	}
	var ps cache.PerSet
	for _, c := range [...]struct {
		raw json.RawMessage
		dst *[]uint64
	}{{raw.Accesses, &ps.Accesses}, {raw.Hits, &ps.Hits}, {raw.Misses, &ps.Misses}} {
		if c.raw == nil {
			continue
		}
		v, err := parseCounts(c.raw)
		if err != nil {
			return cache.PerSet{}, fmt.Errorf("resultstore: parse per-set counts: %w", err)
		}
		*c.dst = v
	}
	return ps, nil
}

// errBadCounts marks a per-set array that json.Unmarshal would not
// decode into a []uint64.
var errBadCounts = errors.New("per-set counts are not an array of unsigned 64-bit integers")

var comma = []byte{','}

// parseCounts decodes one per-set array exactly as json.Unmarshal
// decodes it into a fresh []uint64, without reflection: null gives a nil
// slice, [] an empty one, a null element 0; a sign, a fraction, an
// exponent, a value above MaxUint64, any other value and malformed JSON
// are errors (FuzzManifestCounts holds it to json.Unmarshal).
//
//lint:hotpath every disk hit parses ~3k integers through here
func parseCounts(data []byte) ([]uint64, error) {
	i := skipSpace(data, 0)
	if isNull(data, i) {
		if skipSpace(data, i+4) != len(data) {
			return nil, errBadCounts
		}
		return nil, nil
	}
	if i == len(data) || data[i] != '[' {
		return nil, errBadCounts
	}
	// An array holds at most one element more than the input has commas.
	out := make([]uint64, bytes.Count(data, comma)+1)
	if i = skipSpace(data, i+1); i < len(data) && data[i] == ']' {
		if skipSpace(data, i+1) != len(data) {
			return nil, errBadCounts
		}
		return out[:0], nil
	}
	for n := 0; ; n++ {
		if i == len(data) {
			return nil, errBadCounts
		}
		var v uint64
		switch c := data[i]; {
		case c >= '1' && c <= '9':
			for ; i < len(data) && data[i] >= '0' && data[i] <= '9'; i++ {
				d := uint64(data[i] - '0')
				if v > (math.MaxUint64-d)/10 {
					return nil, errBadCounts
				}
				v = v*10 + d
			}
		case c == '0': // JSON allows no leading zero: the next byte ends the number
			i++
		case isNull(data, i):
			i += 4
		default:
			return nil, errBadCounts
		}
		out[n] = v
		if i = skipSpace(data, i); i == len(data) {
			return nil, errBadCounts
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case ']':
			if skipSpace(data, i+1) != len(data) {
				return nil, errBadCounts
			}
			return out[:n+1], nil
		default:
			return nil, errBadCounts
		}
	}
}

// isNull reports a null literal at data[i:].
func isNull(data []byte, i int) bool {
	return len(data)-i >= 4 && string(data[i:i+4]) == "null"
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
}

// inflaters pools flate decompressors, as deflaters pools compressors:
// a decompressor carries a 32 KiB window, and Reset reuses it.
var inflaters = sync.Pool{New: func() any { return flate.NewReader(nil) }}

// inflateBufs pools the buffers compressed manifests inflate into.  A
// decoded manifest holds copies only (parseCounts' slices,
// json.Unmarshal's strings, the rendering), so a buffer goes back to the
// pool once its manifest is decoded, and a warm disk hit reads into a
// buffer that already fits.
var inflateBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledInflate keeps outsized buffers (manifests of very large
// layouts) from pinning memory in the pool.
const maxPooledInflate = 1 << 20

// putInflateBuf returns buf to inflateBufs.
func putInflateBuf(buf *[]byte) {
	if cap(*buf) <= maxPooledInflate {
		inflateBufs.Put(buf)
	}
}

// inflatedPerByte sizes a buffer that is too small for an inflated
// manifest from its compressed size.  Manifests deflate 3x to 30x at
// BestSpeed, the more the more sets and the fewer distinct counts; a
// buffer that fills up doubles.
const inflatedPerByte = 8

// readMaybeCompressed reads an artifact payload, inflating it when the
// path carries the compressed extension: the file is read whole, then
// inflated by a pooled decompressor into *buf's storage, which is grown
// as needed and left in *buf for the caller to return to inflateBufs.
// An uncompressed payload is returned as read.
func readMaybeCompressed(path string, buf *[]byte) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil || !strings.HasSuffix(path, manifestExt) {
		return data, err
	}
	zr := inflaters.Get().(io.ReadCloser)
	defer inflaters.Put(zr)
	if err := zr.(flate.Resetter).Reset(bytes.NewReader(data), nil); err != nil {
		return nil, err
	}
	out := (*buf)[:0]
	if cap(out) < len(data)*inflatedPerByte {
		out = make([]byte, 0, len(data)*inflatedPerByte)
	}
	for {
		if len(out) == cap(out) {
			out = slices.Grow(out, cap(out))
		}
		n, err := zr.Read(out[len(out):cap(out)])
		out = out[:len(out)+n]
		switch {
		case err == io.EOF:
			*buf = out
			return out, nil
		case err != nil:
			*buf = out
			return nil, err
		}
	}
}

// readManifestFile reads and decodes the manifest at path against (key,
// version), inflating it into a pooled buffer that is reused once the
// decode returns.
func readManifestFile(path, key, version string) (core.Result, []byte, error) {
	buf := inflateBufs.Get().(*[]byte)
	defer putInflateBuf(buf)
	data, err := readMaybeCompressed(path, buf)
	if err != nil {
		return core.Result{}, nil, err
	}
	return decodeManifest(data, key, version)
}

// loadManifest reads the on-disk tier: the compressed manifest first,
// then the legacy uncompressed location.  A missing file is an ordinary
// miss (ok == false with the corrupt counter untouched); an unreadable
// or mismatched file is also a miss but counted as corrupt.  A
// successful read bumps the artifact's AccessedAt (throttled), and a
// legacy hit is migrated to the compressed form in place so the store
// converges to one format without a rewrite pass.  rendering is the
// result's reply rendering (decodeManifest).
func (s *Store) loadManifest(key string) (res core.Result, rendering []byte, ok bool) {
	path := s.manifestPath(key)
	res, rendering, err := readManifestFile(path, key, s.version)
	switch {
	case err == nil:
		s.touch(artifactRef{key, tierManifest}, path)
		return res, rendering, true
	case !os.IsNotExist(err):
		s.corrupt.Add(1)
		return core.Result{}, nil, false
	}

	legacy := s.legacyManifestPath(key)
	data, err := os.ReadFile(legacy)
	if err != nil {
		if !os.IsNotExist(err) {
			s.corrupt.Add(1)
		}
		return core.Result{}, nil, false
	}
	res, rendering, err = decodeManifest(data, key, s.version)
	if err != nil {
		s.corrupt.Add(1)
		return core.Result{}, nil, false
	}
	s.migrateLegacy(key, data)
	return res, rendering, true
}

// migrateLegacy rewrites a legacy uncompressed manifest as a compressed
// one and retires the original — the progressive in-place migration: a
// seed-era store converges to the compressed format one read at a time,
// with both files present only in the crash window between publish and
// unlink (where the scrub and the reader both prefer the compressed
// copy).  A concurrent publish of the same cell wrote an equivalent
// manifest, so replacing it is harmless.  Failures leave the legacy file
// serving reads; the counterless degradation is deliberate, the next
// read retries.
func (s *Store) migrateLegacy(key string, data []byte) {
	if s.publish(artifactRef{key, tierManifest}, data) == nil {
		s.migrations.Add(1)
	}
}
