package lint_test

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"cacheuniformity/internal/lint"
	"cacheuniformity/internal/lint/load"
)

// moduleRoot walks up from the test's working directory to the directory
// holding go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test working directory")
		}
		dir = parent
	}
}

var (
	moduleOnce sync.Once
	modulePkgs []*load.Package
	moduleErr  error
)

// modulePackages loads and type-checks the root module's ./... once per
// test binary; every whole-module check shares the result.
func modulePackages(t *testing.T) []*load.Package {
	t.Helper()
	root := moduleRoot(t)
	moduleOnce.Do(func() { modulePkgs, moduleErr = load.Module(root, "./...") })
	if moduleErr != nil {
		t.Fatalf("loading module packages: %v", moduleErr)
	}
	if len(modulePkgs) == 0 {
		t.Fatal("module load returned no packages")
	}
	return modulePkgs
}

// TestRepoIsLintClean runs the full analyzer suite over this repository's
// own packages — the same gate `make lint` applies — so an ordinary
// `go test ./...` catches a new violation (or an unjustified //lint:allow)
// without anyone remembering to run the linter.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module; skipped in -short")
	}
	findings, err := lint.Run(modulePackages(t), lint.Suite())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Logf("%d finding(s); fix the code or add a justified //lint:allow (see DESIGN.md § Enforced invariants)", len(findings))
	}
}

// TestNoDeadDecls fails on any package-level func, type or var under
// internal/ that no non-test code uses, counting both this module and the
// perfbench module (its own go.mod, so `make lint` never loads it).  Delete
// such a declaration, or move it into the _test.go file that uses it.
func TestNoDeadDecls(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks two modules; skipped in -short")
	}
	root := modulePackages(t)
	bench, err := load.Module(filepath.Join(moduleRoot(t), "perfbench"), "./...")
	if err != nil {
		t.Fatalf("loading perfbench packages: %v", err)
	}
	for _, d := range deadDecls(root, root, bench) {
		t.Error(d)
	}
}
