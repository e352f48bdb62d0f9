package gcplus

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// TestDocReferencesResolve keeps the code map honest: every backticked
// Go reference in docs/paper.md, in README.md's package map ("## Layout")
// and in its verification and Method M sections must still name
// something in the module, so a rename or deletion cannot leave the docs
// pointing at nothing.
//
//   - pkg.Name, pkg.Type.Member: pkg is a package of this module; Name
//     is a top-level declaration or test of it, Member a method or field.
//   - Type.Member: a method or field of a type declared anywhere here.
//   - Name: a declaration, method, field or test anywhere here. Bare
//     words starting lower-case (commands, prose) and all-capital ones
//     (workload and algorithm names) are not references.
//   - A trailing `*` matches a prefix, a trailing `()` is ignored.
//   - A leading slash names an HTTP route: its path, up to any `?`,
//     must be registered with a HandleFunc or Handle call.
//   - Other paths (anything with a slash, or a .go file name) must exist.
//
// A dotted reference whose first part is neither a package nor a type
// of this module (testing.B) is left to the standard library.
func TestDocReferencesResolve(t *testing.T) {
	idx := indexModule(t)
	readme := readDoc(t, "README.md")
	sources := map[string]string{
		"docs/paper.md": readDoc(t, "docs/paper.md"),
	}
	for _, h := range []string{"## Layout", "## Compiled-matcher verification engine", "## Compiled query plans & Method M"} {
		sources["README.md "+h] = markdownSection(t, readme, h)
	}
	tick := regexp.MustCompile("`([^`\n]+)`")
	ident := regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*\*?$`)
	checked := 0
	for doc, text := range sources {
		for _, m := range tick.FindAllStringSubmatch(text, -1) {
			ref := strings.TrimSuffix(m[1], "()")
			switch {
			case strings.ContainsAny(ref, " \t"):
				continue
			case strings.HasPrefix(ref, "/"):
				if route, _, _ := strings.Cut(ref, "?"); !idx.routes[route] {
					t.Errorf("%s: `%s` names no registered HTTP route", doc, m[1])
				}
			case strings.Contains(ref, "/") || strings.HasSuffix(ref, ".go"):
				if !idx.hasPath(ref) {
					t.Errorf("%s: `%s` names no file or directory in the module", doc, m[1])
				}
			case ident.MatchString(ref):
				ok, isRef := idx.resolve(ref)
				if isRef && !ok {
					t.Errorf("%s: `%s` resolves to no declaration or test in the module", doc, m[1])
				}
				if !isRef {
					continue
				}
			default:
				continue
			}
			checked++
		}
	}
	if checked < 50 {
		t.Fatalf("only %d references checked; is the extraction broken?", checked)
	}
}

func readDoc(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// markdownSection returns the section under heading, up to the next
// heading of the same level.
func markdownSection(t *testing.T, text, heading string) string {
	t.Helper()
	i := strings.Index(text, "\n"+heading+"\n")
	if i < 0 {
		t.Fatalf("no %q section", heading)
	}
	rest := text[i+len(heading)+2:]
	if j := strings.Index(rest, "\n## "); j >= 0 {
		rest = rest[:j]
	}
	return rest
}

// moduleIndex holds the names declared in the module's Go files.
type moduleIndex struct {
	routes   map[string]bool                       // HTTP route paths registered with Handle/HandleFunc
	files    map[string]bool                       // base names of .go files
	names    map[string]bool                       // every declared name, method and field
	pkgDecls map[string]map[string]bool            // package → top-level names
	members  map[string]map[string]map[string]bool // package → type → methods and fields
}

func indexModule(t *testing.T) *moduleIndex {
	t.Helper()
	idx := &moduleIndex{
		routes: map[string]bool{}, files: map[string]bool{}, names: map[string]bool{},
		pkgDecls: map[string]map[string]bool{}, members: map[string]map[string]map[string]bool{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// benchmark/ is a module of its own.
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "benchmark") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		idx.files[d.Name()] = true
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		idx.add(strings.TrimSuffix(f.Name.Name, "_test"), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func (idx *moduleIndex) add(pkg string, f *ast.File) {
	if idx.pkgDecls[pkg] == nil {
		idx.pkgDecls[pkg] = map[string]bool{}
		idx.members[pkg] = map[string]map[string]bool{}
	}
	member := func(typ, name string) {
		if idx.members[pkg][typ] == nil {
			idx.members[pkg][typ] = map[string]bool{}
		}
		idx.members[pkg][typ][name] = true
		idx.names[name] = true
	}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		lit, isLit := call.Args[0].(*ast.BasicLit)
		if !ok || !isLit || lit.Kind != token.STRING || (sel.Sel.Name != "HandleFunc" && sel.Sel.Name != "Handle") {
			return true
		}
		pattern, err := strconv.Unquote(lit.Value)
		// "GET /stats" or "/stats": the path is the last field
		if fields := strings.Fields(pattern); err == nil && len(fields) > 0 {
			idx.routes[fields[len(fields)-1]] = true
		}
		return true
	})
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				idx.pkgDecls[pkg][d.Name.Name] = true
				idx.names[d.Name.Name] = true
			} else {
				member(recvType(d.Recv.List[0].Type), d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					idx.pkgDecls[pkg][s.Name.Name] = true
					idx.names[s.Name.Name] = true
					var fields *ast.FieldList
					switch tt := s.Type.(type) {
					case *ast.StructType:
						fields = tt.Fields
					case *ast.InterfaceType:
						fields = tt.Methods
					}
					if fields == nil {
						continue
					}
					for _, fl := range fields.List {
						for _, n := range fl.Names {
							member(s.Name.Name, n.Name)
						}
						if len(fl.Names) == 0 {
							member(s.Name.Name, recvType(fl.Type))
						}
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						idx.pkgDecls[pkg][n.Name] = true
						idx.names[n.Name] = true
					}
				}
			}
		}
	}
}

// recvType names the type of a receiver or embedded field.
func recvType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvType(e.X)
	case *ast.IndexExpr:
		return recvType(e.X)
	case *ast.IndexListExpr:
		return recvType(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}

func (idx *moduleIndex) hasPath(ref string) bool {
	if !strings.Contains(ref, "/") {
		return idx.files[ref]
	}
	_, err := os.Stat(filepath.FromSlash(ref))
	return err == nil
}

// resolve reports whether ref names something in the module, and
// whether ref is a reference at all under the rules above.
func (idx *moduleIndex) resolve(ref string) (ok, isRef bool) {
	prefix := strings.HasSuffix(ref, "*")
	ref = strings.TrimSuffix(ref, "*")
	has := func(set map[string]bool, name string) bool {
		if !prefix {
			return set[name]
		}
		for n := range set {
			if strings.HasPrefix(n, name) {
				return true
			}
		}
		return false
	}
	parts := strings.Split(ref, ".")
	if len(parts) == 1 {
		first := []rune(ref)[0]
		if unicode.IsLower(first) || first == '_' || strings.ToUpper(ref) == ref {
			return false, false
		}
		return has(idx.names, ref), true
	}
	if decls, isPkg := idx.pkgDecls[parts[0]]; isPkg {
		switch rest := parts[1:]; len(rest) {
		case 1:
			return has(decls, rest[0]), true
		case 2:
			return has(idx.members[parts[0]][rest[0]], rest[1]), true
		}
		return false, true
	}
	if len(parts) != 2 {
		return false, true
	}
	found := false
	for _, types := range idx.members {
		if m, isType := types[parts[0]]; isType {
			found = true
			if has(m, parts[1]) {
				return true, true
			}
		}
	}
	if !found && unicode.IsLower([]rune(parts[0])[0]) {
		return false, false // another module's package, e.g. testing.B
	}
	return false, true
}
