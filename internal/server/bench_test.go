package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cacheuniformity/internal/core"
	"cacheuniformity/internal/resultstore"
)

// BenchmarkServeCell times the HTTP edge of a warm /v1/cell hit at the
// paper's 1024-set geometry, from request decode to the written body,
// without a network hop: a memory hit, a memory hit with the per-set
// counts, and a disk hit (no memory tier, so every request decodes a
// manifest).
func BenchmarkServeCell(b *testing.B) {
	for _, bc := range []struct {
		name   string
		opts   func(b *testing.B) resultstore.Options
		perSet bool
	}{
		{"memory-hit", func(*testing.B) resultstore.Options { return resultstore.Options{} }, false},
		{"memory-hit-per-set", func(*testing.B) resultstore.Options { return resultstore.Options{} }, true},
		{"disk-hit", func(b *testing.B) resultstore.Options {
			return resultstore.Options{Dir: b.TempDir(), MemoryEntries: -1}
		}, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			store, err := resultstore.Open(bc.opts(b))
			if err != nil {
				b.Fatal(err)
			}
			sim := core.Default()
			sim.TraceLength = 20_000
			srv, err := New(Config{Store: store, Sim: sim})
			if err != nil {
				b.Fatal(err)
			}
			h := srv.Handler()
			body := `{"scheme":"xor","benchmark":"crc"}`
			if bc.perSet {
				body = `{"scheme":"xor","benchmark":"crc","include_per_set":true}`
			}
			serve := func() *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cell", strings.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
				return rec
			}
			serve() // computes the cell
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				serve()
			}
		})
	}
}
