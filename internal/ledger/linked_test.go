package ledger

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// unlinkedExempt lists the packages whose functions the census does not
// demand be linked: the public library, whose API is its purpose, and the
// packages only tests import.
var unlinkedExempt = map[string]string{
	"agree":                "public API: callers outside the module link it",
	"internal/leakcheck":   "imported only by tests",
	"internal/cli/clitest": "imported only by tests",
}

// keptUnlinked lists the functions no main package links that stay, each
// with its reason, keyed by package directory and then by the function's
// name as the census spells it ("F", "T.M" or "(*T).M").
var keptUnlinked = map[string]map[string]string{
	"internal/adversary": {
		"NewRandom": "seeded crash adversary the core, earlystop, floodset and simulate tests drive",
	},
	"internal/cli": {
		"(*Cmd).ProfilePaths": "clitest runs every command's golden through it",
	},
	"internal/consensus/mr99": {
		"(*ChooserOracle).AuxQuorum":        "oracle through which the mr99 tests walk every asynchronous choice",
		"(*ChooserOracle).CrashesBefore":    "oracle through which the mr99 tests walk every asynchronous choice",
		"(*ChooserOracle).ReceivesEstimate": "oracle through which the mr99 tests walk every asynchronous choice",
	},
	"internal/core": {
		"(*Protocol).Violated": "reports the algorithm's cannot-happen branch (line 9) to the core tests",
	},
	"internal/sim": {
		"(*Result).Decision": "per-process decision lookup the sim and core tests read",
		"SendPlan.IsEmpty":   "the core and floodset tests check silent rounds with it",
	},
	"internal/telemetry": {
		"(*Recorder).Timeline": "agree's public Telemetry.Timeline calls it",
	},
	"internal/timing": {
		"CrossoverDelta": "the paper's closed-form crossover δ*, which the timing tests and Example check the cost model against",
	},
	"internal/trace": {
		"(*Log).Filter": "the sim, check and trace tests select events with it",
	},
}

// TestEveryFunctionIsLinked is the dead-code census: it builds every main
// package of the module with inlining off, so that each function a program
// calls keeps its own symbol, and fails listing each non-test function that
// no binary links, outside the exempt packages and the kept table.
func TestEveryFunctionIsLinked(t *testing.T) {
	module, err := modulePath(root)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := packageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string][]string{} // package dir → function keys
	var mains []string
	for _, dir := range dirs {
		name, funcs, err := declaredFuncs(filepath.Join(root, dir))
		if err != nil {
			t.Fatal(err)
		}
		if name == "main" {
			mains = append(mains, dir)
		}
		declared[dir] = funcs
	}
	linked, err := linkedFuncs(t, module, mains)
	if err != nil {
		t.Fatal(err)
	}

	var unlinked []string
	for _, dir := range dirs {
		if _, ok := unlinkedExempt[dir]; ok {
			continue
		}
		for _, fn := range declared[dir] {
			_, kept := keptUnlinked[dir][fn]
			switch isLinked := linked[dir][fn]; {
			case !isLinked && !kept:
				unlinked = append(unlinked, dir+"."+fn)
			case isLinked && kept:
				t.Errorf("%s.%s is linked now; drop it from keptUnlinked", dir, fn)
			}
		}
	}
	for dir, funcs := range keptUnlinked {
		for fn := range funcs {
			if !slices.Contains(declared[dir], fn) {
				t.Errorf("keptUnlinked names %s.%s, which is not declared; drop it", dir, fn)
			}
		}
	}
	if len(unlinked) > 0 {
		t.Errorf("%d non-test functions are linked by no main package (%s); delete them, or keep one in keptUnlinked with its reason:\n\t%s",
			len(unlinked), strings.Join(mains, ", "), strings.Join(unlinked, "\n\t"))
	}
}

// modulePath reads the module path from root's go.mod.
func modulePath(root string) (string, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(mod), "\n") {
		if m, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(m), nil
		}
	}
	return "", fmt.Errorf("go.mod declares no module")
}

// declaredFuncs parses the non-test files of the package in dir and returns
// its name and the census key of each function and method it declares,
// init functions and blank names aside.
func declaredFuncs(dir string) (pkg string, funcs []string, err error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return "", nil, err
	}
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return "", nil, err
		}
		pkg = f.Name.Name
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || d.Name.Name == "_" || (d.Recv == nil && d.Name.Name == "init") {
				continue
			}
			key := d.Name.Name
			if d.Recv != nil {
				recv := d.Recv.List[0].Type
				if _, ptr := recv.(*ast.StarExpr); ptr {
					key = "(*" + receiverType(recv) + ")." + key
				} else {
					key = receiverType(recv) + "." + key
				}
			}
			funcs = append(funcs, key)
		}
	}
	slices.Sort(funcs)
	return pkg, funcs, nil
}

// linkedFuncs builds the main packages in mains with inlining off and
// returns, per package directory, the census keys of the module's functions
// the binaries contain. A value method counts as linked through its
// pointer wrapper too.
func linkedFuncs(t *testing.T, module string, mains []string) (map[string]map[string]bool, error) {
	out := t.TempDir()
	args := []string{"build", "-gcflags=all=-l", "-o", out + string(os.PathSeparator)}
	for _, dir := range mains {
		args = append(args, "./"+dir)
	}
	build := exec.Command("go", args...)
	build.Dir = root
	if msg, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, msg)
	}
	linked := map[string]map[string]bool{}
	for _, dir := range mains {
		nm, err := exec.Command("go", "tool", "nm", filepath.Join(out, path.Base(dir))).Output()
		if err != nil {
			return nil, fmt.Errorf("go tool nm %s: %v", dir, err)
		}
		sc := bufio.NewScanner(bytes.NewReader(nm))
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) < 3 || (fields[1] != "T" && fields[1] != "t") {
				continue
			}
			sym := withoutTypeArgs(strings.Join(fields[2:], " "))
			pkg, key := dir, ""
			if rest, ok := strings.CutPrefix(sym, "main."); ok {
				key = rest
			} else if rest, ok := strings.CutPrefix(sym, module+"/"); ok {
				// No directory of the module holds a dot, so the package
				// path ends at the first one.
				if pkg, key, ok = strings.Cut(rest, "."); !ok {
					continue
				}
			} else {
				continue
			}
			if linked[pkg] == nil {
				linked[pkg] = map[string]bool{}
			}
			linked[pkg][key] = true
			if m, ok := strings.CutPrefix(key, "(*"); ok {
				if typ, meth, ok := strings.Cut(m, ")."); ok {
					linked[pkg][typ+"."+meth] = true
				}
			}
		}
	}
	return linked, nil
}

// withoutTypeArgs drops the type-argument lists from a symbol, so that
// "(*T[go.shape.int]).M" reads "(*T).M".
func withoutTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}
