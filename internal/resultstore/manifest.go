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
	"sync/atomic"

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

// encodeManifest renders the canonical manifest JSON for one cell.
func encodeManifest(key, version string, cfg core.Config, res core.Result) ([]byte, error) {
	m := manifest{
		Key:       key,
		Version:   version,
		Scheme:    res.Scheme,
		Benchmark: res.Benchmark,
		Config:    cfg.Canonical(),
		Result:    storedResult{Result: res},
	}
	data, err := report.CanonicalJSONIndent(m, "  ")
	if err != nil {
		return nil, fmt.Errorf("resultstore: encode manifest: %w", err)
	}
	return append(data, '\n'), nil
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

// persist publishes the cell's compressed manifest and retires any
// legacy uncompressed manifest for the key in the same publish.
func (s *Store) persist(key string, cfg core.Config, res core.Result) error {
	data, err := encodeManifest(key, s.version, cfg, res)
	if err != nil {
		return err
	}
	return s.publish(key, s.manifestPath(key), data, &s.ledger.manifests, s.legacyManifestPath(key))
}

// publish is the one write path for on-disk artifacts, manifests and
// compiled traces alike.  The payload is compressed and its bytes
// reserved against the quota first — reserving may run GC, so it happens
// before the key's disk lock is taken (lock order gcMu → disk).  Then,
// under that lock, the artifact is written to path by temp file +
// rename and the ledger settled: a replaced file's old size is refunded,
// a new file adds one to objects, and a failed write releases the
// reservation.  A crash mid-write leaves a *.tmp-* orphan for the next
// scrub and never a torn artifact under the final name; readers that
// race the rename see either nothing or the complete file.  After a
// successful write, retire (when set) is unlinked under the same lock:
// a manifest publish retires the key's legacy uncompressed form.
func (s *Store) publish(key, path string, payload []byte, objects *atomic.Int64, retire string) error {
	zdata, err := deflate(payload)
	if err != nil {
		return err
	}
	if err := s.reserve(int64(len(zdata))); err != nil {
		return err
	}

	mu := s.diskLock(key)
	defer mu.Unlock()
	oldSize := fileSize(path)
	if err := writeFileAtomic(path, zdata); err != nil {
		s.release(int64(len(zdata)))
		return err
	}
	if oldSize >= 0 {
		s.ledger.bytes.Add(-oldSize)
	} else {
		objects.Add(1)
	}
	if retire != "" {
		s.unlink(retire, objects)
	}
	return nil
}

// unlink is the one remove path for on-disk artifacts: it removes path
// and settles the ledger by the file's size and one object of its tier.
// It returns the bytes freed, or -1 when the file was absent or the
// unlink failed — a failed unlink leaves the ledger charged, which errs
// toward under-use, and the next Open's scrub reconciles it.  Callers
// hold the key's disk lock.
func (s *Store) unlink(path string, objects *atomic.Int64) int64 {
	size := fileSize(path)
	if size < 0 {
		return -1
	}
	if err := osRemove(path); err != nil {
		return -1
	}
	s.ledger.bytes.Add(-size)
	objects.Add(-1)
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
// json.Unmarshal and has no rendering.
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

// The layout encodeManifest writes around the per-set arrays: result's
// members sit at depth 2, PerSet's at depth 3, and PerSet is followed by
// the result's last member, Scheme.  The match starts at the raw newline
// before PerSet's key; a JSON string holds no raw newline, so the match
// cannot start inside a string.
const perSetKey = "\n    \"PerSet\": "

var perSetSeps = [...][]byte{
	[]byte(perSetKey + "{\n      \"Accesses\": "),
	[]byte(",\n      \"Hits\": "),
	[]byte(",\n      \"Misses\": "),
	[]byte("\n    },"),
}

// resultOpen and resultClose bracket the top-level result value.
var (
	resultOpen  = []byte("\n  \"result\": ")
	resultClose = []byte("\n  }")
)

// perSetSentinel stands in for the per-set object in the rest of the
// document that parseCanonical hands to json.Unmarshal.
var perSetSentinel = []byte(`"\u0000"`)

// manifestHead is manifest as parseCanonical decodes the rest of the
// document: the same fields, except that result.PerSet only records
// what was decoded into it.
type manifestHead struct {
	manifest
	Result struct {
		storedResult
		PerSet perSetMark `json:"PerSet"`
	} `json:"result"`
}

// perSetMark counts the values json.Unmarshal decodes into result.PerSet
// (case-insensitive key matches and null included) and whether the last
// one was perSetSentinel.
type perSetMark struct {
	n        int
	sentinel bool
}

func (p *perSetMark) UnmarshalJSON(b []byte) error {
	p.n++
	p.sentinel = bytes.Equal(b, perSetSentinel)
	return nil
}

// parseCanonical reads a manifest in encodeManifest's layout in one pass:
// the per-set object is located by perSetSeps and its three arrays are
// parsed by parseCounts; json.Unmarshal decodes only the rest of the
// document (~2 KB at 1024 sets), with the object replaced by
// perSetSentinel.  The sentinel, found once in that rest and decoded as
// the only value of result.PerSet, proves the object is result's PerSet
// and that no other PerSet key, earlier or later, merges into or
// overrides it, so the decode equals json.Unmarshal's of the whole
// document.  ok is false for any other document; parseManifest then
// decides.
//
// rendering is result's value with its PerSet member cut out, copied
// out of data: in encodeManifest's layout that is byte for byte the
// reply rendering of the result (see Rendering).
func parseCanonical(data []byte) (m manifest, rendering []byte, ok bool) {
	at := bytes.Index(data, perSetSeps[0])
	if at < 0 {
		return manifest{}, nil, false
	}
	var counts [3][]uint64
	i := at + len(perSetSeps[0])
	for k := range counts {
		end := i + 4 // a null array
		if !isNull(data, i) {
			if end = bytes.IndexByte(data[i:], ']'); end < 0 {
				return manifest{}, nil, false
			}
			end += i + 1
		}
		v, err := parseCounts(data[i:end])
		if err != nil || !bytes.HasPrefix(data[end:], perSetSeps[k+1]) {
			return manifest{}, nil, false
		}
		counts[k], i = v, end+len(perSetSeps[k+1])
	}
	// The object runs from its brace to just before the closing
	// separator's comma.
	objStart, objEnd := at+len(perSetKey), i-1
	head := make([]byte, 0, objStart+len(perSetSentinel)+len(data)-objEnd)
	head = append(append(append(head, data[:objStart]...), perSetSentinel...), data[objEnd:]...)
	if bytes.Count(head, perSetSentinel) != 1 {
		return manifest{}, nil, false
	}
	var h manifestHead
	if err := json.Unmarshal(head, &h); err != nil || h.Result.PerSet.n != 1 || !h.Result.PerSet.sentinel {
		return manifest{}, nil, false
	}
	m = h.manifest
	m.Result = h.Result.storedResult
	m.Result.PerSet = cache.PerSet{Accesses: counts[0], Hits: counts[1], Misses: counts[2]}

	if rs, re := bytes.LastIndex(data[:at], resultOpen), bytes.Index(data[i:], resultClose); rs >= 0 && re >= 0 {
		rs += len(resultOpen)
		re += i + len(resultClose)
		rendering = make([]byte, 0, at-rs+re-i)
		rendering = append(append(rendering, data[rs:at]...), data[i:re]...)
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
// (key, version), returning the result and, when parseManifest has one,
// its reply rendering.  Any failure — truncation, corruption, a manifest
// copied to the wrong name, a stale code version — returns an error; the
// caller treats it as a miss, never as a fatal condition.
func decodeManifest(data []byte, key, version string) (core.Result, []byte, error) {
	m, rendering, err := parseManifest(data)
	if err != nil {
		return core.Result{}, nil, err
	}
	res, err := m.verify(key, version)
	if err != nil {
		return core.Result{}, nil, err
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
// result's reply rendering when the manifest has one (parseManifest).
func (s *Store) loadManifest(key string) (res core.Result, rendering []byte, ok bool) {
	path := s.manifestPath(key)
	res, rendering, err := readManifestFile(path, key, s.version)
	switch {
	case err == nil:
		s.touch(key, path)
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
	if s.publish(key, s.manifestPath(key), data, &s.ledger.manifests, s.legacyManifestPath(key)) == nil {
		s.migrations.Add(1)
	}
}
