// Package ledger holds the size and surface ledger: a test that recounts
// every package of the module and pins the counts in docs/size.md, so a
// change's effect on the code's size shows as a diff of that file. Beside
// it, the dead-code census (TestEveryFunctionIsLinked) fails on a non-test
// function that no program of the module links.
//
// Regenerate the ledger after a deliberate change with
//
//	go test ./internal/ledger -update
package ledger

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite docs/size.md from the current tree")

// root is the module root, relative to this package's directory.
const root = "../.."

// pkgSize is one package's row of the ledger.
type pkgSize struct {
	dir                  string // module-relative, slash-separated
	code, test, testdata int    // lines
	exported             int
	flags                int // -1: not a command
}

// TestSizeLedger recounts the module and compares the result with
// docs/size.md; with -update it rewrites the file instead.
func TestSizeLedger(t *testing.T) {
	pkgs, err := measure(root)
	if err != nil {
		t.Fatal(err)
	}
	got := render(pkgs)
	path := filepath.Join(root, "docs", "size.md")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("docs/size.md is stale; regenerate it with go test ./internal/ledger -update and review the diff. Current ledger:\n%s", got)
	}
}

// measure counts every package of the module under root.
func measure(root string) ([]pkgSize, error) {
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	pkgs := make([]pkgSize, len(dirs))
	for i, dir := range dirs {
		if pkgs[i], err = measurePkg(root, dir); err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}

// packageDirs returns, sorted and slash-separated relative to root, every
// directory under root that holds .go files, outside testdata and hidden
// directories.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		files, err := filepath.Glob(filepath.Join(path, "*.go"))
		if err != nil || len(files) == 0 {
			return err
		}
		rel, err := filepath.Rel(root, path)
		dirs = append(dirs, filepath.ToSlash(rel))
		return err
	})
	slices.Sort(dirs)
	return dirs, err
}

// measurePkg counts the package in dir, relative to root.
func measurePkg(root, dir string) (pkgSize, error) {
	p := pkgSize{dir: dir, flags: -1}
	files, err := filepath.Glob(filepath.Join(root, dir, "*.go"))
	if err != nil {
		return p, err
	}
	fset := token.NewFileSet()
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			return p, err
		}
		if strings.HasSuffix(file, "_test.go") {
			p.test += bytes.Count(src, []byte("\n"))
			continue
		}
		p.code += bytes.Count(src, []byte("\n"))
		f, err := parser.ParseFile(fset, file, src, parser.SkipObjectResolution)
		if err != nil {
			return p, err
		}
		p.exported += exported(f)
	}
	if p.testdata, err = linesUnder(filepath.Join(root, dir, "testdata")); err != nil {
		return p, err
	}
	if strings.HasPrefix(p.dir, "cmd/") {
		flags, err := os.ReadFile(filepath.Join(root, dir, "testdata", "flags.txt"))
		if err != nil {
			return p, err
		}
		p.flags = bytes.Count(flags, []byte("\n"))
	}
	return p, nil
}

// exported counts the file's exported surface: its exported top-level
// types, functions, variables and constants, and the exported methods of
// its exported types.
func exported(f *ast.File) int {
	n := 0
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && (d.Recv == nil || ast.IsExported(receiverType(d.Recv.List[0].Type))) {
				n++
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						n++
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() {
							n++
						}
					}
				}
			}
		}
	}
	return n
}

// receiverType returns the name of a method receiver's base type.
func receiverType(e ast.Expr) string {
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
			return ""
		}
	}
}

// linesUnder counts the lines of every file under dir, 0 when dir does not
// exist.
func linesUnder(dir string) (int, error) {
	lines := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) && path == dir {
				return filepath.SkipDir
			}
			return err
		}
		if d.IsDir() {
			return nil
		}
		data, err := os.ReadFile(path)
		lines += bytes.Count(data, []byte("\n"))
		return err
	})
	return lines, err
}

// render writes the ledger: one row per package and a total row.
func render(pkgs []pkgSize) []byte {
	var b bytes.Buffer
	b.WriteString(`# Size ledger

Lines and surface of every package of the module, recounted by
` + "`go test ./internal/ledger`" + `, which fails when this file differs from the
tree. After a deliberate change, regenerate it with
` + "`go test ./internal/ledger -update`" + ` and review the diff.

- **code**, **test**: newline count of the package's non-test and
  ` + "`_test.go`" + ` files.
- **testdata**: newline count of every file under its ` + "`testdata/`" + `.
- **exported**: exported top-level types, functions, variables and
  constants, plus the exported methods of exported types.
- **flags**: a command's flags, as its ` + "`testdata/flags.txt`" + ` lists them.

| package | code | test | testdata | exported | flags |
|---|---:|---:|---:|---:|---:|
`)
	var total pkgSize
	for _, p := range pkgs {
		flags := "-"
		if p.flags >= 0 {
			flags = fmt.Sprint(p.flags)
			total.flags += p.flags
		}
		fmt.Fprintf(&b, "| `%s` | %d | %d | %d | %d | %s |\n", p.dir, p.code, p.test, p.testdata, p.exported, flags)
		total.code += p.code
		total.test += p.test
		total.testdata += p.testdata
		total.exported += p.exported
	}
	fmt.Fprintf(&b, "| **total** (%d packages) | %d | %d | %d | %d | %d |\n",
		len(pkgs), total.code, total.test, total.testdata, total.exported, total.flags)
	return b.Bytes()
}
