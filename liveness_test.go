package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// liveAllowlist names exported identifiers in internal/ that may stay
// although nothing outside their own package's tests uses them, each with
// the reason. Expected to be empty: an entry needs a caller that this
// test cannot see.
var liveAllowlist = map[string]string{}

// TestInternalExportsAreLive keeps code that no binary runs deleted: every
// package-level exported func, type, var and const in internal/ must be
// used by some non-test file of the module (its own package, another
// package, cmd/, examples/) or by another package's tests, the way test
// support like replica.FaultStore is. A name only its own package's
// tests use is dead code with a test attached. Methods are out of scope:
// interfaces make their use hard to judge without type information. The
// walk parses the source tree with go/parser (no build, no network),
// every file whatever its build constraints, and resolves names by
// their import path and package scope rather than by type checking.
func TestInternalExportsAreLive(t *testing.T) {
	pkgs := parseModule(t, ".")
	if len(pkgs["internal/kv"].files) == 0 {
		t.Fatal("the walk found no internal/kv source; it proves nothing")
	}
	declared := map[string]map[string]bool{} // internal package dir -> exported names
	for dir, p := range pkgs {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		names := map[string]bool{}
		for _, f := range p.files {
			if !f.test {
				for _, id := range topLevelNames(f.ast) {
					if id.IsExported() {
						names[id.Name] = true
					}
				}
			}
		}
		declared[dir] = names
	}

	used := map[string]bool{} // "dir.Name"
	for dir, p := range pkgs {
		for _, f := range p.files {
			// Uses through an import: any non-test file, and test files of
			// a package other than the declaring one.
			for local, target := range importNames(f.ast, pkgs) {
				if local == "." {
					t.Fatalf("%s dot-imports %s; the selector scan cannot see its uses", dir, target)
				}
				if f.test && target == dir {
					continue
				}
				ast.Inspect(f.ast, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok {
						if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
							used[target+"."+sel.Sel.Name] = true
						}
					}
					return true
				})
			}
			// Uses inside the declaring package, from its non-test files.
			if names := declared[dir]; names != nil && !f.test {
				for _, name := range packageScopeUses(f.ast) {
					if names[name] {
						used[dir+"."+name] = true
					}
				}
			}
		}
	}

	var dead []string
	for dir, names := range declared {
		for name := range names {
			id := dir + "." + name
			if !used[id] && liveAllowlist[id] == "" {
				dead = append(dead, id)
			}
		}
	}
	for id := range liveAllowlist {
		dir, name, _ := strings.Cut(id, ".")
		if !declared[dir][name] {
			t.Errorf("allowlist entry %s names no exported declaration; drop it", id)
		}
	}
	slices.Sort(dead)
	for _, id := range dead {
		t.Errorf("%s: no non-test file and no other package's test uses it; delete it", id)
	}
}

type srcFile struct {
	ast  *ast.File
	test bool
}

type srcPackage struct {
	name  string // the package clause of its non-test files
	files []srcFile
}

// parseModule parses every .go file under root, keyed by slash-separated
// directory relative to root. vendor/ and testdata/ trees are not part of
// the module's code.
func parseModule(t *testing.T, root string) map[string]*srcPackage {
	t.Helper()
	fset := token.NewFileSet()
	pkgs := map[string]*srcPackage{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (d.Name() == "vendor" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		sp := pkgs[dir]
		if sp == nil {
			sp = &srcPackage{}
			pkgs[dir] = sp
		}
		test := strings.HasSuffix(p, "_test.go")
		if !test {
			sp.name = f.Name.Name
		}
		sp.files = append(sp.files, srcFile{ast: f, test: test})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// importNames maps each local name a file gives a module package ("."
// for a dot import) to that package's directory.
func importNames(f *ast.File, pkgs map[string]*srcPackage) map[string]string {
	out := map[string]string{}
	for _, imp := range f.Imports {
		ip, _ := strconv.Unquote(imp.Path.Value)
		dir, ok := strings.CutPrefix(ip, "repro/")
		if !ok || pkgs[dir] == nil {
			continue
		}
		local := pkgs[dir].name
		if imp.Name != nil {
			local = imp.Name.Name
		}
		if local == "_" {
			continue
		}
		out[local] = dir
	}
	return out
}

// packageScopeUses lists the identifiers in f that can refer to a
// package-level name: every identifier except declared names (of
// package-level declarations, methods, fields, parameters and results),
// receiver types, and the selected name of a selector. A local variable
// that shadows an exported package-level name would count as a use;
// erring that way keeps the test free of false alarms.
func packageScopeUses(f *ast.File) []string {
	skip := map[*ast.Ident]bool{}
	for _, id := range topLevelNames(f) {
		skip[id] = true
	}
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Recv != nil {
				skip[n.Name] = true
				for _, fld := range n.Recv.List {
					ast.Inspect(fld.Type, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok {
							skip[id] = true
						}
						return true
					})
				}
			}
		case *ast.Field:
			for _, id := range n.Names {
				skip[id] = true
			}
		case *ast.SelectorExpr:
			skip[n.Sel] = true
		case *ast.Ident:
			if !skip[n] && n.IsExported() {
				out = append(out, n.Name)
			}
		}
		return true
	})
	return out
}

// topLevelNames returns the identifiers f's package-level funcs, types,
// vars and consts declare (methods excluded).
func topLevelNames(f *ast.File) []*ast.Ident {
	var out []*ast.Ident
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				out = append(out, d.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					out = append(out, s.Name)
				case *ast.ValueSpec:
					out = append(out, s.Names...)
				}
			}
		}
	}
	return out
}
