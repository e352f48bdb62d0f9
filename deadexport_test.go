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
// non-test file of its own package.
//
// A package-level function, type, variable or constant is referenced
// only by a qualified pkg.Name through an import of its declaring
// package, or by a bare Name inside that package's directory, so an
// unrelated identifier that shares its name (binary.LittleEndian's
// AppendUint64 for wire.AppendUint64) does not keep it alive. Methods
// and struct fields are matched by name alone: which type x.Name
// selects needs the type checker, and matching every selector and
// composite-literal key of that name can only over-count callers, so
// the rule never flags a live method. Methods the standard library calls
// through an interface without naming them (Unwrap for errors.Is/As, and
// the like) are live by construction. Delete a flagged identifier, or
// unexport it; code that only tests need belongs in a _test.go file.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct {
		dir, name string
		method    bool
		pos       token.Position
	}
	type parsed struct {
		f        *ast.File
		dir, key string
	}
	// Parse everything first: resolving an import to its package name
	// needs the imported directory's package clause.
	var files []parsed
	var decls []decl
	declPos := make(map[token.Pos]bool)
	pkgName := make(map[string]string) // internal directory → package name
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
			pkgName[dir] = f.Name.Name
			for _, id := range topLevelDecls(f) {
				declPos[id.Pos()] = true
				decls = append(decls, decl{dir: dir, name: id.Name, method: isMethod(f, id), pos: fset.Position(id.Pos())})
			}
		}
		// A test file's references count for every directory but its
		// own; a non-test file's count everywhere.
		key := dir
		if isTest {
			key = dir + "#test"
		}
		files = append(files, parsed{f, dir, key})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// byName maps an identifier name to the caller keys referencing it
	// anywhere (methods are matched this way); qualified maps
	// "dir.Name" to the caller keys naming the package-level Name of dir,
	// qualified through an import or bare inside dir.
	byName := make(map[string]map[string]bool)
	qualified := make(map[string]map[string]bool)
	note := func(m map[string]map[string]bool, name, key string) {
		if m[name] == nil {
			m[name] = make(map[string]bool)
		}
		m[name][key] = true
	}
	for _, p := range files {
		imports := make(map[string]string) // local name → internal directory
		for _, spec := range p.f.Imports {
			dir, ok := strings.CutPrefix(strings.Trim(spec.Path.Value, `"`), "gcplus/")
			if !ok || pkgName[dir] == "" {
				continue
			}
			local := pkgName[dir]
			if spec.Name != nil {
				local = spec.Name.Name
			}
			imports[local] = dir
		}
		// Selector names are not bare references to the file's own
		// package-level identifiers.
		selected := make(map[token.Pos]bool)
		ast.Inspect(p.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selected[n.Sel.Pos()] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					note(qualified, imports[x.Name]+"."+n.Sel.Name, p.key)
				}
			case *ast.Ident:
				if declPos[n.Pos()] {
					return true
				}
				note(byName, n.Name, p.key)
				if !selected[n.Pos()] {
					note(qualified, p.dir+"."+n.Name, p.key)
				}
			}
			return true
		})
	}
	var dead []string
	for _, d := range decls {
		callers := qualified[d.dir+"."+d.name]
		if d.method {
			callers = byName[d.name]
		}
		live := callers[d.dir]
		if ast.IsExported(d.name) {
			for key := range callers {
				live = live || key != d.dir+"#test"
			}
		}
		if !live && !(d.method && implicitMethods[d.name]) {
			dead = append(dead, d.pos.String()+": "+d.name)
		}
	}
	sort.Strings(dead)
	for _, s := range dead {
		t.Errorf("%s is referenced only by tests", s)
	}
}

// isMethod reports whether id names a method declared in f.
func isMethod(f *ast.File, id *ast.Ident) bool {
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name == id {
			return fd.Recv != nil
		}
	}
	return false
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
