// Package clitest pins a binary's command line to golden fixtures. Only
// tests import it, so the binaries themselves do not link package testing.
package clitest

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
)

// TestCommand pins a binary's command line to the fixtures in its testdata/
// directory, or with update rewrites them (go test ./cmd/... -update);
// newCmd builds the binary's Cmd. testdata/flags.txt lists every flag as
// `-name type "default"`. Each testdata/*.golden file is one invocation: a
// "$ <bin> <args>" line, an "exit <code>" line and the exact stdout, which
// over 32 KiB is pinned by digest as "exit <code> sha256 <hex>" instead. An
// invocation runs in a fresh directory holding a copy of the repository's
// scenarios/ and a link to testdata/; once its flags parse, every
// -cpuprofile or -memprofile file it names in an existing directory must
// be written.
func TestCommand(t *testing.T, newCmd func(stdout, stderr io.Writer) *cli.Cmd, update bool) {
	var surface bytes.Buffer
	newCmd(io.Discard, io.Discard).VisitAll(func(f *flag.Flag) {
		fmt.Fprintf(&surface, "-%s %T %q\n", f.Name, f.Value.(flag.Getter).Get(), f.DefValue)
	})
	checkFixture(t, "testdata/flags.txt", surface.String(), update, "")
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	testdata, scenarios := filepath.Join(wd, "testdata"), filepath.Join(wd, "..", "..", "scenarios")
	// The pattern is well formed, so Glob cannot fail.
	files, _ := filepath.Glob(filepath.Join(testdata, "*.golden"))
	if len(files) == 0 {
		t.Fatalf("no golden files under %s", testdata)
	}
	for _, file := range files {
		t.Run(strings.TrimSuffix(filepath.Base(file), ".golden"), func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			head, _, _ := strings.Cut(string(data), "\n")
			args := strings.Fields(head)[2:]
			dir := t.TempDir()
			if err := os.CopyFS(filepath.Join(dir, "scenarios"), os.DirFS(scenarios)); err != nil {
				t.Fatal(err)
			}
			if err := os.Symlink(testdata, filepath.Join(dir, "testdata")); err != nil {
				t.Fatal(err)
			}
			t.Chdir(dir)
			var stdout, stderr bytes.Buffer
			c := newCmd(&stdout, &stderr)
			code := c.Run(args)
			got := fmt.Sprintf("%s\nexit %d\n%s", head, code, stdout.Bytes())
			if stdout.Len() > 32<<10 {
				got = fmt.Sprintf("%s\nexit %d sha256 %x\n", head, code, sha256.Sum256(stdout.Bytes()))
			}
			checkFixture(t, file, got, update, "\nstderr:\n"+stderr.String())
			if newCmd(io.Discard, io.Discard).Parse(args) != nil {
				return
			}
			cpu, mem := c.ProfilePaths()
			for _, path := range []string{cpu, mem} {
				if _, err := os.Stat(filepath.Dir(path)); path == "" || err != nil {
					continue
				}
				if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
					t.Errorf("profile %s was not written (exit %d)", path, code)
				}
			}
		})
	}
}

// checkFixture compares got with the fixture at path, or rewrites the
// fixture when update is set; a mismatch reports detail as well.
func checkFixture(t *testing.T, path, got string, update bool, detail string) {
	t.Helper()
	if update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if want, err := os.ReadFile(path); err != nil || string(want) != got {
		t.Errorf("%s: the output differs (%v); regenerate with -update and review the diff%s", path, err, detail)
	}
}
