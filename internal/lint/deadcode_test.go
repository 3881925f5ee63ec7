package lint_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cacheuniformity/internal/lint/load"
)

// deadExempt lists the test-support packages whose surface exists for
// _test.go files by design, so no non-test use is expected.
var deadExempt = []string{"internal/faultinject", "internal/testutil", "internal/lint/linttest"}

// declKey names a package-level object independently of the load that
// type-checked it: two Module loads hold distinct objects for the same
// declaration.
type declKey struct{ pkg, name string }

// deadDecl is one candidate declaration and the source spans whose uses do
// not keep it alive: its own declaration (recursion) and, for a type, its
// methods.
type deadDecl struct {
	fset  *token.FileSet
	pos   token.Position
	spans [][2]token.Pos
}

// deadDecls reports every package-level func, type and var of a non-exempt
// internal/ package in defs that nothing in the non-test code of the uses
// loads references.  Constants are out of scope: deleting a member of an
// iota group renumbers the members after it.
func deadDecls(defs []*load.Package, uses ...[]*load.Package) []string {
	decls := map[declKey]*deadDecl{}
	for _, p := range defs {
		if !isInternal(p.PkgPath) || isDeadExempt(p.PkgPath) {
			continue
		}
		add := func(name *ast.Ident, node ast.Node) {
			if name.Name == "_" || name.Name == "init" {
				return
			}
			decls[declKey{p.PkgPath, name.Name}] = &deadDecl{
				fset:  p.Fset,
				pos:   p.Fset.Position(name.Pos()),
				spans: [][2]token.Pos{{node.Pos(), node.End()}},
			}
		}
		var methods []*ast.FuncDecl
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						methods = append(methods, d)
					} else {
						add(d.Name, d)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, s)
						case *ast.ValueSpec:
							if d.Tok == token.VAR {
								for _, n := range s.Names {
									add(n, s)
								}
							}
						}
					}
				}
			}
		}
		for _, m := range methods {
			if named := recvNamed(p.TypesInfo, m); named != nil {
				if d := decls[declKey{p.PkgPath, named.Obj().Name()}]; d != nil {
					d.spans = append(d.spans, [2]token.Pos{m.Pos(), m.End()})
				}
			}
		}
	}

	used := map[declKey]bool{}
	for _, pkgs := range uses {
		for _, p := range pkgs {
			for id, obj := range p.TypesInfo.Uses {
				if obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
					continue
				}
				k := declKey{obj.Pkg().Path(), obj.Name()}
				if d := decls[k]; d != nil && !used[k] && !d.owns(p.Fset, id.Pos()) {
					used[k] = true
				}
			}
		}
	}

	var dead []string
	for k, d := range decls {
		if !used[k] {
			dead = append(dead, fmt.Sprintf("%s:%d: %s.%s has no non-test use", d.pos.Filename, d.pos.Line, k.pkg, k.name))
		}
	}
	sort.Strings(dead)
	return dead
}

// owns reports whether a use at pos, from a load with file set fset, lies
// inside one of d's own spans.  Positions compare only within one file set.
func (d *deadDecl) owns(fset *token.FileSet, pos token.Pos) bool {
	if fset != d.fset {
		return false
	}
	for _, s := range d.spans {
		if s[0] <= pos && pos < s[1] {
			return true
		}
	}
	return false
}

// recvNamed returns the named type a method is declared on.
func recvNamed(info *types.Info, fd *ast.FuncDecl) *types.Named {
	fn, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	t := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// isInternal reports whether an import path has an internal element.
func isInternal(path string) bool { return strings.Contains(path, "/internal/") }

func isDeadExempt(path string) bool {
	for _, e := range deadExempt {
		if strings.HasSuffix(path, "/"+e) {
			return true
		}
	}
	return false
}

// TestDeadDeclsFixture pins the guard's rule on a fixture tree: unused
// exported and unexported funcs are flagged, and so is a type that only
// its own methods mention; a func used from another package and an
// unused iota constant are not.
func TestDeadDeclsFixture(t *testing.T) {
	root, err := filepath.Abs("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := load.Tree(root, "example.com/internal/dead", "example.com/internal/deadtype", "example.com/cmd/deadmain")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range deadDecls(pkgs, pkgs) {
		got = append(got, d[strings.LastIndex(d, ": ")+2:])
	}
	want := []string{
		"example.com/internal/dead.Unused has no non-test use",
		"example.com/internal/dead.unused has no non-test use",
		"example.com/internal/deadtype.Orphan has no non-test use",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("deadDecls =\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
