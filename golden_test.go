package cacheuniformity

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cacheuniformity/internal/core"
	"cacheuniformity/internal/experiments"
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
