package server

import (
	"bytes"
	"compress/flate"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/core"
	"cacheuniformity/internal/registry"
	"cacheuniformity/internal/report"
	"cacheuniformity/internal/resultstore"
	"cacheuniformity/internal/testutil"
)

// cellCase is one /v1/cell request: the declarations it names, its
// config overrides and whether it asks for the per-set counts.
type cellCase struct {
	scheme, bench registry.Decl
	over          simOverrides
	perSet        bool
}

func (c cellCase) body(t testing.TB) string {
	t.Helper()
	data, err := json.Marshal(cellRequest{Scheme: c.scheme, Benchmark: c.bench, Config: &c.over, IncludePerSet: c.perSet})
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func (c cellCase) withSeed(seed uint64) cellCase {
	c.over.Seed = &seed
	return c
}

func (c cellCase) withPerSet(perSet bool) cellCase {
	c.perSet = perSet
	return c
}

// oracleCell renders the reply the way every /v1/cell reply was written
// before the direct writer: the whole envelope through
// report.CanonicalJSONIndent.  The result comes from golden, a store of
// its own, and the key from CellKeyDecl, so neither shares the serving
// path; origin and elapsed_ns are the only fields read from the reply.
func oracleCell(t testing.TB, srv *Server, golden *resultstore.Store, c cellCase, origin resultstore.Origin, elapsedNs int64) []byte {
	t.Helper()
	cfg, err := srv.simConfig(&c.over)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := registry.ResolveScheme(c.scheme)
	if err != nil {
		t.Fatal(err)
	}
	spec, benchCanon, err := registry.ResolveWorkload(c.bench)
	if err != nil {
		t.Fatal(err)
	}
	key, err := resultstore.CellKeyDecl(cfg, c.scheme, c.bench, golden.Version())
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := golden.CellDecl(context.Background(), cfg, c.scheme, c.bench)
	if err != nil {
		t.Fatal(err)
	}
	return oracleBody(t, cellResponse{
		Scheme:        sc.Name,
		Benchmark:     spec.Name,
		SchemeDecl:    canonicalJSON(t, sc.Decl),
		BenchmarkDecl: canonicalJSON(t, benchCanon),
		Key:           key,
		Origin:        origin,
		ElapsedNs:     elapsedNs,
	}, res, c.perSet)
}

// canonicalJSON is report.CanonicalJSON, failing the test on error.
func canonicalJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := report.CanonicalJSON(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// oracleBody is the reference encoding of one reply.
func oracleBody(t testing.TB, resp cellResponse, res core.Result, perSet bool) []byte {
	t.Helper()
	rj, err := toResultJSON(res, perSet)
	if err != nil {
		t.Fatal(err)
	}
	resp.Result = rj
	want, err := report.CanonicalJSONIndent(resp, "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(want, '\n')
}

// oracleRendering is a result's reply rendering by its definition: the
// canonical JSON of the result without PerSet, indented as it sits
// inside the envelope.
func oracleRendering(t testing.TB, res core.Result) []byte {
	t.Helper()
	rj, err := toResultJSON(res, false)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := json.Indent(&b, canonicalJSON(t, rj), "  ", "  "); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// checkReply compares a 200 reply with the oracle byte for byte and
// returns its origin.
func checkReply(t testing.TB, srv *Server, golden *resultstore.Store, c cellCase, status int, body []byte) resultstore.Origin {
	t.Helper()
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var head struct {
		Origin    resultstore.Origin `json:"origin"`
		ElapsedNs int64              `json:"elapsed_ns"`
	}
	if err := json.Unmarshal(body, &head); err != nil {
		t.Fatal(err)
	}
	assertSameBytes(t, string(head.Origin)+" reply", body, oracleCell(t, srv, golden, c, head.Origin, head.ElapsedNs))
	return head.Origin
}

// assertSameBytes fails with the first differing offset and its context.
func assertSameBytes(t testing.TB, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(0, i-60)
	t.Fatalf("%s differs from the oracle at byte %d (len %d, want %d):\n got …%q\nwant …%q",
		what, i, len(got), len(want), got[lo:min(len(got), i+60)], want[lo:min(len(want), i+60)])
}

// openTestStore opens a store, failing the test on error.
func openTestStore(t testing.TB, opts resultstore.Options) *resultstore.Store {
	t.Helper()
	store, err := resultstore.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// serveStore serves a Server over store on a test listener, with
// maxConcurrent worker slots (0 = the default).
func serveStore(t testing.TB, store *resultstore.Store, maxConcurrent int) (*Server, string) {
	t.Helper()
	srv, err := New(Config{Store: store, Sim: testSim(), MaxConcurrent: maxConcurrent})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts.URL
}

// renderCases are the declarations the differential tests cover: a
// catalog pair, an inline scheme and benchmark with parameters, and
// inline declarations whose names and parameters take the encoder's
// escaping and the canonical number forms.
var renderCases = []cellCase{
	{scheme: registry.Decl{Name: "xor"}, bench: registry.Decl{Name: "crc"}},
	{
		scheme: registry.Decl{Kind: "odd_multiplier", Params: registry.Params{"multiplier": 13}},
		bench:  registry.Decl{Kind: "zipf", Params: registry.Params{"blocks": 128, "skew": 1.5}},
	},
	{
		scheme: registry.Decl{Name: "v<ictim>&", Kind: "victim", Params: registry.Params{"entries": 8}},
		bench:  registry.Decl{Name: "z\u2028", Kind: "zipf", Params: registry.Params{"blocks": 1e3, "skew": 0.5, "write_frac": 1e-7}},
	},
}

// TestCellResponseKeysSorted pins the hand-written envelope order to the
// struct: exactly cellResponse's json keys, sorted as canonical JSON
// sorts them, so a new field cannot be dropped silently.
func TestCellResponseKeysSorted(t *testing.T) {
	var tags []string
	rt := reflect.TypeFor[cellResponse]()
	for i := range rt.NumField() {
		name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		tags = append(tags, name)
	}
	slices.Sort(tags)
	if got := cellResponseKeys[:]; !slices.Equal(got, tags) {
		t.Fatalf("cellResponseKeys = %q, want the sorted json keys %q", got, tags)
	}
}

// TestCellReplyMatchesOracle: computed and memory replies, disk hits
// followed by memory hits on the promoted entries, and hits on legacy
// uncompressed manifests and on manifests in another layout (compact,
// which the store decodes without a rendering), with and without
// per-set counts, at 2, 64 and 1024 sets, for each of renderCases, are
// byte-identical to the oracle.
func TestCellReplyMatchesOracle(t *testing.T) {
	golden := openTestStore(t, resultstore.Options{})
	for _, sets := range []int{2, 64, 1024} {
		for ci, base := range renderCases {
			t.Run(fmt.Sprintf("sets=%d/case=%d", sets, ci), func(t *testing.T) {
				base.over.Sets = &sets
				dir := t.TempDir()
				srv, url := serveStore(t, openTestStore(t, resultstore.Options{Dir: dir}), 0)
				for seed, perSet := range []bool{false, true} {
					c := base.withSeed(uint64(seed + 1)).withPerSet(perSet)
					// computed, then memory twice: the second memory hit
					// reuses the rendering the first attached, and the
					// opposite per-set variant shares it.
					want := []resultstore.Origin{resultstore.OriginComputed, resultstore.OriginMemory, resultstore.OriginMemory}
					for i, w := range want {
						cc := c.withPerSet(perSet != (i == 2))
						status, body := postJSON(t, url+"/v1/cell", cc.body(t))
						if got := checkReply(t, srv, golden, cc, status, body); got != w {
							t.Fatalf("request %d origin = %s, want %s", i, got, w)
						}
					}
				}
				// A fresh store over the same directory: disk hits that
				// promote into memory, then memory hits on the promoted
				// entries.  Then again over the manifests rewritten in the
				// legacy uncompressed form, and in the compact layout.
				for _, layout := range []string{"compressed", "legacy", "compact"} {
					legacy := layout == "legacy"
					switch layout {
					case "legacy":
						legacyManifests(t, dir)
					case "compact":
						compactManifests(t, dir)
					}
					srv2, url2 := serveStore(t, openTestStore(t, resultstore.Options{Dir: dir}), 0)
					for seed, perSet := range []bool{false, true} {
						c := base.withSeed(uint64(seed + 1)).withPerSet(perSet)
						for i, w := range []resultstore.Origin{resultstore.OriginDisk, resultstore.OriginMemory} {
							status, body := postJSON(t, url2+"/v1/cell", c.body(t))
							if got := checkReply(t, srv2, golden, c, status, body); got != w {
								t.Fatalf("reopened (%s) request %d origin = %s, want %s", layout, i, got, w)
							}
						}
					}
					if m := srv2.cfg.Store.Counters().Migrations; legacy != (m > 0) {
						t.Fatalf("reopened (%s): %d legacy manifests migrated", layout, m)
					}
				}
			})
		}
	}
}

// legacyManifests rewrites every compressed manifest under dir as the
// uncompressed file a store from before compression wrote.
func legacyManifests(t *testing.T, dir string) {
	t.Helper()
	eachManifest(t, dir, func(path string, data []byte) error {
		if err := os.WriteFile(strings.TrimSuffix(path, ".z"), data, 0o644); err != nil {
			return err
		}
		return os.Remove(path)
	})
}

// compactManifests rewrites every compressed manifest under dir in the
// compact layout, still compressed.
func compactManifests(t *testing.T, dir string) {
	t.Helper()
	eachManifest(t, dir, func(path string, data []byte) error {
		var compact bytes.Buffer
		if err := json.Compact(&compact, data); err != nil {
			return err
		}
		var zdata bytes.Buffer
		zw, err := flate.NewWriter(&zdata, flate.BestSpeed)
		if err != nil {
			return err
		}
		if _, err := zw.Write(compact.Bytes()); err != nil {
			return err
		}
		if err := zw.Close(); err != nil {
			return err
		}
		return os.WriteFile(path, zdata.Bytes(), 0o644)
	})
}

// eachManifest calls rewrite with the path and inflated bytes of every
// compressed manifest under dir.
func eachManifest(t *testing.T, dir string, rewrite func(path string, data []byte) error) {
	t.Helper()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, ".json.z") {
			return err
		}
		zdata, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		data, err := io.ReadAll(flate.NewReader(bytes.NewReader(zdata)))
		if err != nil {
			return err
		}
		return rewrite(path, data)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDiskHitRendering: a disk hit arrives with the manifest's
// rendering, equal to the oracle's rendering of its result, with a
// memory tier (the promoted entry keeps it for the memory hits after)
// and without one (a copy for the hit alone).  Every rendering still
// holds its bytes after the later disk hits, which reuse the inflate
// buffers.
func TestDiskHitRendering(t *testing.T) {
	dir := t.TempDir()
	srv, url := serveStore(t, openTestStore(t, resultstore.Options{Dir: dir}), 0)
	keys := make([]string, len(renderCases))
	for ci, c := range renderCases {
		sets := 1024
		c.over.Sets = &sets
		if status, body := postJSON(t, url+"/v1/cell", c.body(t)); status != http.StatusOK {
			t.Fatalf("case %d: status %d: %s", ci, status, body)
		}
		cfg, err := srv.simConfig(&c.over)
		if err != nil {
			t.Fatal(err)
		}
		if keys[ci], err = resultstore.CellKeyDecl(cfg, c.scheme, c.bench, srv.cfg.Store.Version()); err != nil {
			t.Fatal(err)
		}
	}
	for _, entries := range []int{0, -1} {
		store := openTestStore(t, resultstore.Options{Dir: dir, MemoryEntries: entries})
		want := []resultstore.Origin{resultstore.OriginDisk, resultstore.OriginMemory}
		if entries < 0 {
			want[1] = resultstore.OriginDisk
		}
		var served []resultstore.Served
		for ci, key := range keys {
			for _, w := range want {
				c, ok := store.PeekCell(key)
				if !ok || c.Origin != w {
					t.Fatalf("case %d, memory entries %d: ok %v origin %s, want %s", ci, entries, ok, c.Origin, w)
				}
				served = append(served, c)
			}
		}
		for i, c := range served {
			assertSameBytes(t, fmt.Sprintf("memory entries %d, hit %d (%s) rendering", entries, i, c.Origin), c.Rendering, oracleRendering(t, c.Result))
		}
	}

	// Concurrent disk hits share the pooled inflate buffers: each
	// rendering must still hold its own manifest's bytes.
	store := openTestStore(t, resultstore.Options{Dir: dir, MemoryEntries: -1})
	const workers, rounds = 8, 10
	served := make([][]resultstore.Served, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				c, ok := store.PeekCell(keys[(w+r)%len(keys)])
				if !ok || c.Origin != resultstore.OriginDisk {
					t.Errorf("worker %d round %d: ok %v origin %s, want a disk hit", w, r, ok, c.Origin)
					return
				}
				served[w] = append(served[w], c)
			}
		}()
	}
	wg.Wait()
	for w, cs := range served {
		for r, c := range cs {
			assertSameBytes(t, fmt.Sprintf("concurrent worker %d round %d rendering", w, r), c.Rendering, oracleRendering(t, c.Result))
		}
	}
}

// TestDecodePeerPerSet: a peer reply in replyCell's layout is read in
// one pass, its per-set counts decode as json.Unmarshal decodes them,
// and a negative or fractional count rejects the body.
func TestDecodePeerPerSet(t *testing.T) {
	ps := randomPerSet(rand.New(rand.NewPCG(5, 6)), 1024)
	res := core.Result{Benchmark: "crc", Scheme: "xor", MissRate: 0.25, AMAT: 5.75, PerSet: ps}
	body := peerReplyBody(t, res)
	var head peerCellReply[resultstore.PerSetMark]
	if _, ok := resultstore.UnmarshalCut(body, &head, &head.Result.PerSet); !ok {
		t.Fatal("a reply in replyCell's layout is not read in one pass")
	}
	got, err := decodePeerCell(body, "k", "xor", "crc")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("decoded %+v, want %+v", got, res)
	}
	const depth4 = "        "
	first := fmt.Sprintf("\"Hits\": [\n%s%d", depth4, ps.Hits[0])
	for _, bad := range []string{"-1", "1.5"} {
		corrupt := bytes.Replace(body, []byte(first), []byte("\"Hits\": [\n"+depth4+bad), 1)
		if bytes.Equal(corrupt, body) {
			t.Fatalf("no %q in the reply", first)
		}
		if _, err := decodePeerCell(corrupt, "k", "xor", "crc"); err == nil {
			t.Fatalf("a peer count of %s was accepted", bad)
		}
	}
}

// peerReplyBody is the /v1/cell reply a peer writes for res under key
// "k", with its per-set counts.
func peerReplyBody(t testing.TB, res core.Result) []byte {
	t.Helper()
	body, err := appendCellResponse(nil, &cellResponse{
		Scheme: res.Scheme, Benchmark: res.Benchmark, Key: "k", Origin: resultstore.OriginMemory,
		SchemeDecl:    canonicalJSON(t, registry.Decl{Name: "xor", Kind: "xor"}),
		BenchmarkDecl: canonicalJSON(t, registry.KernelDecl("crc")),
	}, oracleRendering(t, res), &res.PerSet)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestStoredRenderingMatchesOracle: with and without a memory tier and
// a disk tier, computed replies match the oracle, and so does the
// rendering the store serves for the cell afterwards, from the memory
// entry the computation inserted or from the manifest it wrote.
func TestStoredRenderingMatchesOracle(t *testing.T) {
	golden := openTestStore(t, resultstore.Options{})
	for _, entries := range []int{0, -1} {
		for _, withDir := range []bool{true, false} {
			opts := resultstore.Options{MemoryEntries: entries}
			if withDir {
				opts.Dir = t.TempDir()
			}
			store := openTestStore(t, opts)
			srv, url := serveStore(t, store, 0)
			for ci, c := range renderCases {
				status, body := postJSON(t, url+"/v1/cell", c.body(t))
				if got := checkReply(t, srv, golden, c, status, body); got != resultstore.OriginComputed {
					t.Fatalf("case %d: origin %s, want computed", ci, got)
				}
				cfg, err := srv.simConfig(&c.over)
				if err != nil {
					t.Fatal(err)
				}
				key, err := resultstore.CellKeyDecl(cfg, c.scheme, c.bench, store.Version())
				if err != nil {
					t.Fatal(err)
				}
				served, ok := store.PeekCell(key)
				if ok != (entries >= 0 || withDir) {
					t.Fatalf("entries %d dir %v case %d: stored %v", entries, withDir, ci, ok)
				}
				if ok {
					assertSameBytes(t, fmt.Sprintf("entries %d dir %v case %d %s rendering", entries, withDir, ci, served.Origin),
						served.Rendering, oracleRendering(t, served.Result))
				}
			}
		}
	}
}

// TestCellReplyInflightMatchesOracle collapses concurrent cold requests
// onto one computation: the leader's "computed" reply and the waiters'
// "inflight" replies, with and without per-set counts, all match.
func TestCellReplyInflightMatchesOracle(t *testing.T) {
	defer testutil.CheckLeaks(t)
	golden := openTestStore(t, resultstore.Options{})
	// Every request holds a worker slot at once, so all of them reach
	// the store while the leader computes.
	const n = 8
	srv, url := serveStore(t, openTestStore(t, resultstore.Options{}), n)
	length := 200_000 // long enough that waiters arrive mid-computation
	base := renderCases[0]
	base.over.TraceLength = &length
	seen := map[bool]bool{}
	for seed := uint64(1); seed <= 10 && !(seen[false] && seen[true]); seed++ {
		bodies, statuses := concurrentPosts(t, url, func(i int) cellCase { return base.withSeed(seed).withPerSet(i%2 == 1) }, n)
		for i := range n {
			c := base.withSeed(seed).withPerSet(i%2 == 1)
			if checkReply(t, srv, golden, c, statuses[i], bodies[i]) == resultstore.OriginInflight {
				seen[c.perSet] = true
			}
		}
	}
	if !seen[false] || !seen[true] {
		t.Fatalf("no inflight reply observed in 10 attempts (per-set variants seen: %v)", seen)
	}
}

// TestCellReplyPeerMatchesOracle covers the forward path: a non-owner's
// "peer" reply, and its memory hits on the peer-filled entry, match.
func TestCellReplyPeerMatchesOracle(t *testing.T) {
	t.Cleanup(func() { testutil.CheckLeaks(t) })
	nodes := startFleet(t, 2, nil)
	a, b := nodes[0], nodes[1]
	golden := openTestStore(t, resultstore.Options{})
	for _, perSet := range []bool{false, true} {
		// A fresh owned cell per variant, so each one's first reply is
		// the forward.
		var c cellCase
		first := uint64(1)
		if perSet {
			first = 1001
		}
		for seed := first; ; seed++ {
			c = renderCases[0].withSeed(seed).withPerSet(perSet)
			cfg, err := a.srv.simConfig(&c.over)
			if err != nil {
				t.Fatal(err)
			}
			key, err := resultstore.CellKeyDecl(cfg, c.scheme, c.bench, a.store.Version())
			if err != nil {
				t.Fatal(err)
			}
			if a.cl.Owner(key) == b.url {
				break
			}
		}
		for i, w := range []resultstore.Origin{OriginPeer, resultstore.OriginMemory, resultstore.OriginMemory} {
			cc := c.withPerSet(perSet != (i == 2))
			status, body := postJSON(t, a.url+"/v1/cell", cc.body(t))
			if got := checkReply(t, a.srv, golden, cc, status, body); got != w {
				t.Fatalf("per_set=%v request %d origin = %s, want %s", perSet, i, got, w)
			}
		}
		// The peer fill's memory entry holds the oracle's rendering.
		cfg, err := a.srv.simConfig(&c.over)
		if err != nil {
			t.Fatal(err)
		}
		key, err := resultstore.CellKeyDecl(cfg, c.scheme, c.bench, a.store.Version())
		if err != nil {
			t.Fatal(err)
		}
		served, ok := a.store.PeekCell(key)
		if !ok || served.Origin != resultstore.OriginMemory {
			t.Fatalf("per_set=%v: peer-filled cell ok %v origin %s, want a memory entry", perSet, ok, served.Origin)
		}
		assertSameBytes(t, fmt.Sprintf("per_set=%v peer-filled rendering", perSet), served.Rendering, oracleRendering(t, served.Result))
	}
}

// randomPerSet draws n-set counts mixing zeros, small values, MaxUint64
// and the full range.
func randomPerSet(rng *rand.Rand, n int) cache.PerSet {
	draw := func() []uint64 {
		v := make([]uint64, n)
		for i := range v {
			switch rng.IntN(4) {
			case 0:
			case 1:
				v[i] = math.MaxUint64
			case 2:
				v[i] = rng.Uint64N(1000)
			default:
				v[i] = rng.Uint64()
			}
		}
		return v
	}
	return cache.PerSet{Accesses: draw(), Hits: draw(), Misses: draw()}
}

// TestAppendPerSetMatchesOracle compares the direct per-set writer
// (resultstore.AppendResult) with the canonical encoder on random
// counts, spliced into the result alone at its depth and into a whole
// reply.
func TestAppendPerSetMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var cases []cache.PerSet
	for _, n := range []int{1, 2, 1024, 4096} {
		cases = append(cases, randomPerSet(rng, n), randomPerSet(rng, n))
	}
	cases = append(cases,
		cache.PerSet{},
		cache.PerSet{Accesses: []uint64{}, Hits: []uint64{0}, Misses: nil},
		cache.PerSet{Accesses: []uint64{math.MaxUint64, 0, math.MaxUint64}, Hits: []uint64{}, Misses: []uint64{}},
	)
	for i, ps := range cases {
		res := core.Result{Benchmark: "crc", Scheme: "xor", MissRate: 0.25, AMAT: 5.75, PerSet: ps}
		rj, err := toResultJSON(res, true)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.Indent(&want, canonicalJSON(t, rj), "  ", "  "); err != nil {
			t.Fatal(err)
		}
		result := oracleRendering(t, res)
		withPerSet, err := resultstore.AppendResult(nil, result, &ps)
		if err != nil {
			t.Fatal(err)
		}
		assertSameBytes(t, fmt.Sprintf("case %d result", i), withPerSet, want.Bytes())

		resp := cellResponse{
			Scheme: "xor", Benchmark: "crc", Key: "k", Origin: resultstore.OriginMemory, ElapsedNs: 7,
			SchemeDecl:    canonicalJSON(t, registry.Decl{Name: "xor", Kind: "xor"}),
			BenchmarkDecl: canonicalJSON(t, registry.KernelDecl("crc")),
		}
		got, err := appendCellResponse(nil, &resp, result, &ps)
		if err != nil {
			t.Fatal(err)
		}
		assertSameBytes(t, fmt.Sprintf("case %d reply", i), got, oracleBody(t, resp, res, true))
	}
}

// TestRenderingLifetime: a reply stays byte-identical to the oracle as
// its entry's rendering is made, reused and dropped — by LRU eviction,
// by DELETE /v1/cell, across GC — and concurrent hits on an entry made
// outside the server give the same body.
func TestRenderingLifetime(t *testing.T) {
	defer testutil.CheckLeaks(t)
	golden := openTestStore(t, resultstore.Options{})
	store := openTestStore(t, resultstore.Options{Dir: t.TempDir(), MemoryEntries: 2})
	srv, url := serveStore(t, store, 0)
	cell := func(seed uint64, perSet bool) cellCase { return renderCases[0].withSeed(seed).withPerSet(perSet) }
	ask := func(c cellCase) resultstore.Origin {
		t.Helper()
		status, body := postJSON(t, url+"/v1/cell", c.body(t))
		return checkReply(t, srv, golden, c, status, body)
	}
	ask(cell(1, false))
	ask(cell(1, true))
	// Evict seed 1 from the two-entry memory tier: its next reply is a
	// disk hit on a fresh entry.
	ask(cell(2, false))
	ask(cell(3, false))
	if got := ask(cell(1, false)); got != resultstore.OriginDisk {
		t.Fatalf("after eviction: origin %s, want disk", got)
	}
	ask(cell(1, true))

	del := func(c cellCase) {
		t.Helper()
		req, err := json.Marshal(deleteCellRequest{Scheme: c.scheme, Benchmark: c.bench, Config: &c.over})
		if err != nil {
			t.Fatal(err)
		}
		hreq, err := http.NewRequest(http.MethodDelete, url+"/v1/cell", bytes.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delete: status %d", resp.StatusCode)
		}
	}
	del(cell(1, false))
	if got := ask(cell(1, true)); got != resultstore.OriginComputed {
		t.Fatalf("after delete: origin %s, want computed", got)
	}
	ask(cell(1, false))

	if status, body := postJSON(t, url+"/v1/gc", `{"target_bytes":1}`); status != http.StatusOK {
		t.Fatalf("gc: status %d: %s", status, body)
	}
	if got := ask(cell(1, false)); got != resultstore.OriginMemory {
		t.Fatalf("after gc: origin %s, want memory (gc leaves the memory tier alone)", got)
	}
	ask(cell(1, true))

	// An entry made outside the server carries its rendering too:
	// concurrent hits all serve it, and every body matches.
	c := cell(4, false)
	cfg, err := srv.simConfig(&c.over)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.CellDecl(context.Background(), cfg, c.scheme, c.bench); err != nil {
		t.Fatal(err)
	}
	bodies, statuses := concurrentPosts(t, url, func(i int) cellCase { return c.withPerSet(i%2 == 1) }, 8)
	for i := range bodies {
		checkReply(t, srv, golden, c.withPerSet(i%2 == 1), statuses[i], bodies[i])
	}
}

// concurrentPosts releases n /v1/cell requests at once and returns their
// bodies and statuses, indexed like the cases.
func concurrentPosts(t *testing.T, url string, caseOf func(int) cellCase, n int) ([][]byte, []int) {
	t.Helper()
	bodies := make([][]byte, n)
	statuses := make([]int, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range n {
		body := caseOf(i).body(t)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := http.Post(url+"/v1/cell", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			_, _ = buf.ReadFrom(resp.Body)
			bodies[i], statuses[i] = buf.Bytes(), resp.StatusCode
		}()
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return bodies, statuses
}
