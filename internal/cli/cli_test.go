package cli

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/agree"
)

func TestStartCPUEmptyPathNoop(t *testing.T) {
	stop, err := startCPU("")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil { // must be callable, not nil
		t.Error(err)
	}
}

func TestStartCPUWritesProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pb.gz")
	stop, err := startCPU(path)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to hold.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Error("CPU profile file is empty after stop")
	}
	// A second stop from a fresh start must not collide with the first.
	stop2, err := startCPU(filepath.Join(t.TempDir(), "cpu2.pb.gz"))
	if err != nil {
		t.Fatal(err)
	}
	if err := stop2(); err != nil {
		t.Error(err)
	}
}

func TestWriteHeap(t *testing.T) {
	if err := writeHeap(""); err != nil {
		t.Errorf("empty path: %v", err)
	}
	path := filepath.Join(t.TempDir(), "mem.pb.gz")
	if err := writeHeap(path); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Error("heap profile file is empty")
	}
	if err := writeHeap(filepath.Join(t.TempDir(), "no", "such", "dir", "m")); err == nil {
		t.Error("unwritable path: want error, got nil")
	}
}

func TestWriteFile(t *testing.T) {
	var stdout bytes.Buffer
	c := New("x", &stdout, io.Discard)
	if err := c.WriteFile("", []byte("dropped")); err != nil {
		t.Errorf("empty path: %v", err)
	}
	path := filepath.Join(t.TempDir(), "artifact.json")
	if err := c.WriteFile(path, []byte(`{"ok":true}`)); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != `{"ok":true}` {
		t.Errorf("wrote %q", got)
	}
	if err := c.WriteFile("-", []byte("{}")); err != nil || stdout.String() != "{}\n" {
		t.Errorf(`"-" wrote %q to stdout (%v), want "{}\n"`, stdout.String(), err)
	}
	if err := c.WriteFile(filepath.Join(t.TempDir(), "no", "such", "dir", "a"), nil); err == nil {
		t.Error("unwritable path: want error, got nil")
	}
}

// TestRunExitPath pins the one exit path: parse errors exit 2 and -h exits 0
// without running Main; past the parse, Main's code stands unless the heap
// profile cannot be written, which turns 0 (only) into 1.
func TestRunExitPath(t *testing.T) {
	unwritable := filepath.Join(t.TempDir(), "no", "such", "dir", "m.prof")
	cases := []struct {
		args     []string
		main     int
		want     int
		wantMain bool
	}{
		{[]string{"-nosuchflag"}, 0, 2, false},
		{[]string{"-h"}, 0, 0, false},
		{nil, 2, 2, true},
		{[]string{"-memprofile", unwritable}, 0, 1, true},
		{[]string{"-memprofile", unwritable}, 2, 2, true},
		{[]string{"-cpuprofile", unwritable}, 0, 1, false},
	}
	for _, tc := range cases {
		var stderr bytes.Buffer
		c := New("x", io.Discard, &stderr)
		c.Profiles()
		ran := false
		c.Main = func() int { ran = true; return tc.main }
		if got := c.Run(tc.args); got != tc.want || ran != tc.wantMain {
			t.Errorf("%v with Main returning %d: exit %d (Main ran: %t), want %d (%t)",
				tc.args, tc.main, got, ran, tc.want, tc.wantMain)
		}
		if tc.want == 1 && !strings.HasPrefix(stderr.String(), "x: ") {
			t.Errorf("%v: stderr %q does not start with the binary's name", tc.args, stderr.String())
		}
	}
}

func TestAtLeastAndAscending(t *testing.T) {
	c := New("x", io.Discard, io.Discard)
	c.Int("n", 1, "")
	c.Int("t", 0, "")
	if err := c.Parse([]string{"-t", "-1"}); err != nil {
		t.Fatal(err)
	}
	if err := c.AtLeast(1, "n"); err != nil {
		t.Errorf("-n=1 at least 1: %v", err)
	}
	if err := c.AtLeast(0, "n", "t"); err == nil || !strings.Contains(err.Error(), "-t=-1") {
		t.Errorf("-t=-1 at least 0: got %v, want an error naming -t", err)
	}
	for order, want := range map[string]bool{"desc": false, "asc": true} {
		if got, err := Ascending(order); got != want || err != nil {
			t.Errorf("Ascending(%q) = %t, %v", order, got, err)
		}
	}
	if _, err := Ascending("up"); err == nil {
		t.Error(`Ascending("up") accepted`)
	}
}

// TestLatencyFromFlags pins the -lat-* flag assembly: a half-applied
// invocation (a knob that the selected model would silently ignore) is an
// error, never a silently different model, and the scenario-format form
// names the same model as the agree.LatencySpec.
func TestLatencyFromFlags(t *testing.T) {
	ok := []struct {
		args string
		want agree.LatencySpec
		kind string
	}{
		{"", agree.LatencySpec{}, ""},
		{"-lat-profile 1g", agree.ProfileLatency("1g"), "profile"},
		{"-lat-d 1 -lat-delta 0.1", agree.FixedLatency(1, 0.1), "fixed"},
		{"-lat-d 1 -lat-delta 0.1 -lat-floor 0.2 -lat-spread 0.5", agree.JitterLatency(7, 1, 0.1, 0.2, 0.5), "jitter"},
	}
	for _, tc := range ok {
		l := parseLatency(t, tc.args)
		got, err := l.Spec()
		if err != nil || got != tc.want {
			t.Errorf("%q: got (%+v, %v), want %+v", tc.args, got, err, tc.want)
		}
		if s, err := l.Scenario(); err != nil || s.Kind != tc.kind {
			t.Errorf("%q: scenario form %+v (%v), want kind %q", tc.args, s, err, tc.kind)
		}
	}
	bad := []string{
		"-lat-profile 1g -lat-d 1",
		"-lat-profile 1g -lat-delta 0.2",
		"-lat-profile 1g -lat-floor 0.2",
		"-lat-profile 1g -lat-spread 0.5",
		"-lat-spread 0.5",
		"-lat-d 1 -lat-floor 0.5",
		"-lat-floor 0.5",
		"-lat-delta 0.2",
	}
	for _, args := range bad {
		l := parseLatency(t, args)
		if _, err := l.Spec(); err == nil {
			t.Errorf("%q: Spec accepted a half-applied flag combination", args)
		}
		if _, err := l.Scenario(); err == nil {
			t.Errorf("%q: Scenario accepted a half-applied flag combination", args)
		}
	}
}

func parseLatency(t *testing.T, args string) *Latency {
	t.Helper()
	c := New("x", io.Discard, io.Discard)
	l := c.Latency("")
	if err := c.Parse(append(strings.Fields(args), "-lat-seed", "7")); err != nil {
		t.Fatal(err)
	}
	return l
}

// TestDocInvocations parses every `go run` of a binary under cmd/ in README.md,
// docs/*.md and .github/workflows/*.yml against that binary's flag surface,
// testdata/flags.txt, which each binary's TestCommand pins to its live
// FlagSet. An unknown binary, an unknown flag or a stray argument fails it.
func TestDocInvocations(t *testing.T) {
	files := []string{"../../README.md"}
	for _, pattern := range []string{"../../docs/*.md", "../../.github/workflows/*.yml"} {
		matches, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, matches...)
	}
	total := 0
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		n, problems := checkDoc(string(data))
		total += n
		for _, p := range problems {
			t.Errorf("%s:%s", file, p)
		}
	}
	if total < 40 {
		t.Errorf("found %d documented invocations, want the forty-odd the docs hold", total)
	}
}

// TestDocInvocationsCatchDrift plants a misspelt flag and an unknown binary:
// both must be reported, with the line the invocation starts on.
func TestDocInvocationsCatchDrift(t *testing.T) {
	planted := "```sh\n" +
		"go run ./cmd/agreerun -n 8 -engine timed -lat-d 1 \\\n" +
		"    -lat-dleta 0.1   # typo\n" +
		"go run ./cmd/agreefoo -n 1\n" +
		"(`go run ./cmd/agreesim -list` prints the catalog)\n"
	n, problems := checkDoc(planted)
	if n != 3 || len(problems) != 2 ||
		!strings.Contains(problems[0], "2: agreerun") || !strings.Contains(problems[0], "lat-dleta") ||
		!strings.Contains(problems[1], "4: agreefoo") {
		t.Errorf("planted drift: %d invocations, problems %q", n, problems)
	}
}

// githubExpr matches a workflow expression such as ${{ matrix.engine }}.
var githubExpr = regexp.MustCompile(`\$\{\{.*?\}\}`)

// checkDoc parses each `go run ./cmd/<bin>` invocation in text, joining
// lines that end in a `\` continuation; the command ends at a closing
// backtick, a comment or a shell operator. It returns the number of
// invocations and one "<line>: <bin> …" problem per bad one.
func checkDoc(text string) (n int, problems []string) {
	lines := strings.Split(text, "\n")
	for i := 0; i < len(lines); i++ {
		_, cmd, ok := strings.Cut(lines[i], "go run ./cmd/")
		if !ok {
			continue
		}
		start := i + 1
		for strings.HasSuffix(strings.TrimSpace(cmd), `\`) && i+1 < len(lines) {
			i++
			cmd = strings.TrimSuffix(strings.TrimSpace(cmd), `\`) + " " + lines[i]
		}
		cmd = githubExpr.ReplaceAllString(cmd, "expr")
		if j := strings.IndexAny(cmd, "`#>|;&"); j >= 0 {
			cmd = cmd[:j]
		}
		fields := strings.Fields(cmd)
		for k := range fields {
			fields[k] = strings.Trim(fields[k], `'"`)
		}
		n++
		fs, err := flagSurface(fields[0])
		if err == nil {
			err = fs.Parse(fields[1:])
		}
		if err == nil && fs.NArg() > 0 {
			err = fmt.Errorf("stray arguments %q", fs.Args())
		}
		if err != nil {
			problems = append(problems, fmt.Sprintf("%d: %s: %v", start, fields[0], err))
		}
	}
	return n, problems
}

// flagSurface rebuilds bin's flag set from its pinned testdata/flags.txt.
func flagSurface(bin string) (*flag.FlagSet, error) {
	data, err := os.ReadFile(filepath.Join("../../cmd", bin, "testdata", "flags.txt"))
	if err != nil {
		return nil, fmt.Errorf("unknown binary (%v)", err)
	}
	fs := flag.NewFlagSet(bin, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var name, typ string
		if _, err := fmt.Sscanf(line, "-%s %s", &name, &typ); err != nil {
			return nil, fmt.Errorf("flags.txt line %q: %v", line, err)
		}
		switch typ {
		case "bool":
			fs.Bool(name, false, "")
		case "int":
			fs.Int(name, 0, "")
		case "int64":
			fs.Int64(name, 0, "")
		case "float64":
			fs.Float64(name, 0, "")
		default:
			fs.String(name, "", "")
		}
	}
	return fs, nil
}
