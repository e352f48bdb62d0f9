package gcplus

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNoTestOnlyExports enforces the dead-code rule for top-level
// identifiers (functions, methods, types, variables and constants)
// declared in non-test files under internal/. An exported one must be
// referenced from somewhere other than its own package's _test.go files
// — another package, test or not, or a non-test file of its own package;
// every .go file in the repository counts as a caller, including the
// benchmark/ module's. An unexported one must be referenced from a
// non-test file of its own package. References are matched by
// identifier name alone, which can only over-count callers, so the rule
// never flags a live identifier. Methods the standard library calls
// through an interface without naming them (Unwrap for errors.Is/As, and
// the like) are live by construction. Delete a flagged identifier, or
// unexport it; code that only tests need belongs in a _test.go file.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct {
		dir, name string
		pos       token.Position
	}
	// callers maps an identifier name to the files referencing it, keyed
	// by directory, with "#test" appended for _test.go files. declPos
	// holds the declaring identifiers, which are not references.
	callers := make(map[string]map[string]bool)
	var decls []decl
	declPos := make(map[token.Pos]bool)
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		isTest := strings.HasSuffix(path, "_test.go")
		if !isTest && strings.HasPrefix(dir, "internal/") {
			for _, id := range topLevelDecls(f) {
				declPos[id.Pos()] = true
				decls = append(decls, decl{dir: dir, name: id.Name, pos: fset.Position(id.Pos())})
			}
		}
		// A test file's references count for every directory but its
		// own; a non-test file's count everywhere.
		key := dir
		if isTest {
			key = dir + "#test"
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declPos[id.Pos()] {
				if callers[id.Name] == nil {
					callers[id.Name] = make(map[string]bool)
				}
				callers[id.Name][key] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for _, d := range decls {
		live := callers[d.name][d.dir]
		if ast.IsExported(d.name) {
			for key := range callers[d.name] {
				live = live || key != d.dir+"#test"
			}
		}
		if !live && !implicitMethods[d.name] {
			dead = append(dead, d.pos.String()+": "+d.name)
		}
	}
	sort.Strings(dead)
	for _, s := range dead {
		t.Errorf("%s is referenced only by tests", s)
	}
}

// implicitMethods are method names the standard library invokes through
// interfaces (errors, fmt, encoding/json, net/http), which callers
// reach without spelling them.
var implicitMethods = map[string]bool{
	"Error": true, "Unwrap": true, "String": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "ServeHTTP": true,
}

// topLevelDecls returns the name identifiers of f's top-level
// declarations, methods included, except blank identifiers and init
// functions, which nothing references by name.
func topLevelDecls(f *ast.File) []*ast.Ident {
	var out []*ast.Ident
	add := func(id *ast.Ident) {
		if id.Name != "_" && id.Name != "init" {
			out = append(out, id)
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			add(d.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						add(n)
					}
				}
			}
		}
	}
	return out
}
