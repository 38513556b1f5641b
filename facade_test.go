package accuracytrader

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

// TestFacadeExportsAreUsed keeps the root facade to what its readers
// use: every exported name of accuracytrader.go is used as at.<Name>
// by an examples/ program, used by a root test, or opens a code span in
// README.md (`Name` or `at.Name`); a type named in the signature of a
// used function is used with it. A name with none of these is dead
// surface; delete it rather than exempting it here.
func TestFacadeExportsAreUsed(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "accuracytrader.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var exports []string
	signatures := map[string]*ast.FuncType{}
	for _, d := range facade.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				exports = append(exports, d.Name.Name)
				signatures[d.Name.Name] = d.Type
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						exports = append(exports, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							exports = append(exports, n.Name)
						}
					}
				}
			}
		}
	}
	if len(exports) < 20 {
		t.Fatalf("only %d facade exports found — wrong working directory?", len(exports))
	}

	used := map[string]bool{}
	// Qualified uses, at.<Name>, in the examples and the external
	// (package accuracytrader_test) root tests.
	mains, err := filepath.Glob("examples/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(mains, tests...) {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if f.Name.Name == "accuracytrader" {
			// An in-package test names the facade unqualified: a package
			// identifier is one the parser could not resolve in its file.
			for _, id := range f.Unresolved {
				used[id.Name] = true
			}
			continue
		}
		local := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"accuracytrader"` {
				local = "accuracytrader"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range exports {
		if regexp.MustCompile("`(at\\.)?" + name + `\b`).Match(readme) {
			used[name] = true
		}
	}
	// A type a used function's signature names is part of that
	// function's surface: BuildSynopsis keeps Synopsis.
	for name, sig := range signatures {
		if used[name] {
			ast.Inspect(sig, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					return false // an internal package's name, not the facade's
				case *ast.Ident:
					used[n.Name] = true
				}
				return true
			})
		}
	}

	var dead []string
	for _, name := range exports {
		if !used[name] {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("facade export %s: no at.%s in examples/, no use in a root test, no `%s` in README.md", name, name, name)
	}
}
