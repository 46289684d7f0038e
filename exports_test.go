package vaq

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The dead-export guard: every exported top-level name and every
// exported method declared under internal/ must be referenced by some
// non-test file of the module — bench/ included, since it imports
// vaq/internal/... — or be listed in testdata/exports_allowlist.txt with
// the reason it stays (interface method, test oracle, test seam). The
// comparison runs both ways, so a stale allowlist entry fails too. Only
// go/parser and go/ast are used: names resolve syntactically, not by
// type checking.
//
// A package-level name counts as referenced through pkg.Name (pkg
// resolved by the file's imports) or through a bare Name in a file of
// its own package. A method counts as referenced when any selector
// x.Name carries its name, which errs toward "used". References inside
// the name's own declaration (recursion, a method's receiver type, a
// method calling itself on its receiver) do not count.

const allowlistPath = "testdata/exports_allowlist.txt"

func TestNoDeadExports(t *testing.T) {
	dead, err := deadExports(".", "vaq")
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllowlist(allowlistPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := compareAllowlist(dead, allow); err != nil {
		t.Fatalf("%v\nDelete the unreferenced export, or list it in %s as `pkg.Name  # reason`.", err, allowlistPath)
	}
}

// TestDeadExportsFixture proves the matcher on a small tree with one
// dead and one live export of each kind: the dead ones are reported,
// the guard fails until they are allowlisted, and a stale entry fails.
func TestDeadExportsFixture(t *testing.T) {
	dead, err := deadExports("testdata/deadexports", "fixture")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"lib.Dead", "lib.Thing.Unused"}
	if strings.Join(dead, ",") != strings.Join(want, ",") {
		t.Fatalf("dead exports = %v, want %v", dead, want)
	}
	if err := compareAllowlist(dead, map[string]string{"lib.Dead": "test oracle"}); err == nil || !strings.Contains(err.Error(), "lib.Thing.Unused") {
		t.Fatalf("unlisted dead export passed the guard: %v", err)
	}
	allow := map[string]string{"lib.Dead": "test oracle", "lib.Thing.Unused": "interface method"}
	if err := compareAllowlist(dead, allow); err != nil {
		t.Fatalf("fully allowlisted fixture failed: %v", err)
	}
	allow["lib.Live"] = "stale"
	if err := compareAllowlist(dead, allow); err == nil || !strings.Contains(err.Error(), "lib.Live") {
		t.Fatalf("stale allowlist entry passed the guard: %v", err)
	}
}

// exportDecl is one exported declaration under internal/.
type exportDecl struct {
	key    string // "pkg.Name" or "pkg.Type.Method", pkg relative to internal/
	path   string // import path of the declaring package
	name   string
	method bool
}

// deadExports scans the module rooted at root (module path module) and
// returns the sorted keys of the exported declarations under internal/
// that no non-test file references.
func deadExports(root, module string) ([]string, error) {
	var decls []exportDecl
	pkgRefs := map[string]bool{} // "importpath\x00Name"
	selRefs := map[string]bool{} // selector names
	fset := token.NewFileSet()
	internal := module + "/internal/"
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (name == "testdata" || name == "out" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		path := module
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasPrefix(path, internal) {
			decls = append(decls, fileExports(f, path, strings.TrimPrefix(path, internal))...)
		}
		fileRefs(f, path, pkgRefs, selRefs)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var dead []string
	for _, d := range decls {
		used := pkgRefs[d.path+"\x00"+d.name]
		if d.method {
			used = selRefs[d.name]
		}
		if !used {
			dead = append(dead, d.key)
		}
	}
	sort.Strings(dead)
	return dead, nil
}

// fileExports lists f's exported top-level names and methods.
func fileExports(f *ast.File, path, pkg string) []exportDecl {
	var out []exportDecl
	add := func(id *ast.Ident) {
		if id.IsExported() {
			out = append(out, exportDecl{key: pkg + "." + id.Name, path: path, name: id.Name})
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name)
			} else if d.Name.IsExported() {
				key := pkg + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
				out = append(out, exportDecl{key: key, path: path, name: d.Name.Name, method: true})
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id)
					}
				}
			}
		}
	}
	return out
}

// recvName returns the type name of a method receiver (T, *T, T[P]).
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return fmt.Sprintf("%T", e)
		}
	}
}

// fileRefs records the references f makes: pkg.Name through its
// imports, bare names into its own package, and every selector name.
// Each top-level declaration is walked without its own names, so a
// declaration does not reference itself.
func fileRefs(f *ast.File, path string, pkgRefs, selRefs map[string]bool) {
	imports := map[string]string{}
	for _, imp := range f.Imports {
		ipath := strings.Trim(imp.Path.Value, `"`)
		name := ipath[strings.LastIndex(ipath, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = ipath
	}
	// walk records n's references, skipping bare names in own and the
	// self-call recv.method (recv empty outside methods).
	walk := func(n ast.Node, own map[string]bool, recv, method string) {
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				id, isIdent := x.X.(*ast.Ident)
				if !isIdent || id.Name != recv || x.Sel.Name != method {
					selRefs[x.Sel.Name] = true
				}
				if isIdent {
					if ipath, ok := imports[id.Name]; ok {
						pkgRefs[ipath+"\x00"+x.Sel.Name] = true
						return false
					}
				}
				ast.Inspect(x.X, visit)
				return false
			case *ast.Ident:
				if !own[x.Name] {
					pkgRefs[path+"\x00"+x.Name] = true
				}
			}
			return true
		}
		ast.Inspect(n, visit)
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			// The receiver is skipped: a method does not keep its type alive.
			own, recv := map[string]bool{d.Name.Name: true}, ""
			if d.Recv != nil {
				own = nil
				if names := d.Recv.List[0].Names; len(names) > 0 {
					recv = names[0].Name
				}
			}
			walk(d.Type, own, "", "")
			if d.Body != nil {
				walk(d.Body, own, recv, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					walk(s, map[string]bool{s.Name.Name: true}, "", "")
				case *ast.ValueSpec:
					own := map[string]bool{}
					for _, id := range s.Names {
						own[id.Name] = true
					}
					walk(s, own, "", "")
				}
			}
		}
	}
}

// readAllowlist parses `pkg.Name  # reason` lines; blank lines and
// lines starting with # are skipped, and every entry needs a reason.
func readAllowlist(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, "#")
		name, reason = strings.TrimSpace(name), strings.TrimSpace(reason)
		if reason == "" {
			return nil, fmt.Errorf("%s:%d: %q has no `# reason`", path, ln, name)
		}
		if _, dup := allow[name]; dup {
			return nil, fmt.Errorf("%s:%d: %q listed twice", path, ln, name)
		}
		allow[name] = reason
	}
	return allow, sc.Err()
}

// compareAllowlist fails when a dead export is not allowlisted or an
// allowlist entry is no longer dead (referenced, renamed or deleted).
func compareAllowlist(dead []string, allow map[string]string) error {
	var msgs []string
	isDead := map[string]bool{}
	for _, k := range dead {
		isDead[k] = true
		if _, ok := allow[k]; !ok {
			msgs = append(msgs, "unreferenced export: "+k)
		}
	}
	for k := range allow {
		if !isDead[k] {
			msgs = append(msgs, "stale allowlist entry (referenced or gone): "+k)
		}
	}
	if len(msgs) == 0 {
		return nil
	}
	sort.Strings(msgs)
	return fmt.Errorf("%s", strings.Join(msgs, "\n"))
}
