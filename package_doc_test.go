package accuracytrader

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestEveryInternalPackageHasDocComment enforces the documentation
// floor: every internal package carries a package doc comment in a
// dedicated doc.go, so godoc explains what each package implements (the
// paper section or the extension) before anyone reads code.
func TestEveryInternalPackageHasDocComment(t *testing.T) {
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 10 {
		t.Fatalf("only %d internal packages found — wrong working directory?", len(dirs))
	}
	for _, dir := range dirs {
		info, err := os.Stat(dir)
		if err != nil || !info.IsDir() {
			continue
		}
		docPath := filepath.Join(dir, "doc.go")
		if _, err := os.Stat(docPath); err != nil {
			t.Errorf("%s: no doc.go", dir)
			continue
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, docPath, nil, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Errorf("%s: %v", docPath, err)
			continue
		}
		if f.Doc == nil || len(f.Doc.Text()) < 40 {
			t.Errorf("%s: missing or trivial package doc comment", docPath)
		}
	}
}

// mdName matches a markdown file name (or path) cited in prose.
var mdName = regexp.MustCompile(`[A-Za-z0-9_][A-Za-z0-9_./-]*\.md\b`)

// TestCommentsCiteExistingDocs fails when a Go comment anywhere in the
// repository names a *.md file that does not exist — relative to the
// commenting file's directory or to the repository root — so a comment
// cannot point readers at a document that was never written or has
// gone.
func TestCommentsCiteExistingDocs(t *testing.T) {
	exists := func(p string) bool { _, err := os.Stat(p); return err == nil }
	checked := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name[0] == '.' || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) != ".go" {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, group := range f.Comments {
			for _, c := range group.List {
				for _, name := range mdName.FindAllString(c.Text, -1) {
					checked++
					if !exists(filepath.Join(filepath.Dir(path), name)) && !exists(name) {
						t.Errorf("%s: comment cites %s, which does not exist", fset.Position(c.Pos()), name)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no markdown citation found in any comment — wrong working directory?")
	}
}

// TestProductionCodeDoesNotImportTesting keeps unit checks in unit
// tests: no non-test Go file outside the bench/ module imports
// "testing", so no binary links it and no promise a package test
// already makes is re-run in production code.
func TestProductionCodeDoesNotImportTesting(t *testing.T) {
	checked := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name[0] == '.' || name == "testdata" || path == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) != ".go" || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		checked++
		for _, imp := range f.Imports {
			if imp.Path.Value == `"testing"` {
				t.Errorf("%s imports \"testing\": move the check into a _test.go file", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked < 50 {
		t.Fatalf("only %d production files found — wrong working directory?", checked)
	}
}
