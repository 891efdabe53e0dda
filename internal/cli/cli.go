// Package cli is the command-line plumbing shared by the six binaries under
// cmd/ (agreerun, agreexplore, agreebench, agreefuzz, agreesim, agreeserve):
// one flag.FlagSet per invocation, the flag groups several binaries declare
// with the same semantics (the -lat-* latency model, -order, and the
// -cpuprofile/-memprofile/-telemetry-out/-chrome-trace outputs), and one
// exit path. A binary declares its own flags on a Cmd and its body as
// Cmd.Main; its main is os.Exit(cmd.Run(os.Args[1:])), and its tests build
// the same Cmd over buffers and drive it in-process (see clitest.TestCommand).
//
// The profiles and telemetry files are wall-clock-side observability; the
// deterministic simulated-time telemetry itself lives in internal/telemetry.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/agree"
)

// Cmd is one invocation of a binary: the binary declares its flags on the
// embedded flag set, which carries its name.
type Cmd struct {
	*flag.FlagSet
	Stdout, Stderr io.Writer
	// Main is the binary's body. It runs once the flags parse, inside the
	// CPU profile, and returns the exit code.
	Main func() int

	cpuProfile, memProfile    string
	telemetryOut, chromeTrace string
}

// New returns a Cmd whose flag set reports parse errors and usage on stderr.
func New(name string, stdout, stderr io.Writer) *Cmd {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return &Cmd{FlagSet: fs, Stdout: stdout, Stderr: stderr}
}

// Run parses args and runs Main through the exit path every binary shares.
// As with the flag package's own command line, a parse error exits 2 and -h
// exits 0. Past the parse, the CPU profile spans Main, the heap profile is
// written on every exit, and a profile that cannot be written turns exit 0
// into 1.
func (c *Cmd) Run(args []string) int {
	if err := c.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	stop, err := startCPU(c.cpuProfile)
	code := 1
	if err == nil {
		code = c.Main()
		err = stop()
	}
	for _, err := range []error{err, writeHeap(c.memProfile)} {
		if err != nil {
			code = max(code, c.Fail(err))
		}
	}
	return code
}

// Fail reports err on stderr as "<name>: <err>" and returns exit code 1.
func (c *Cmd) Fail(err error) int {
	fmt.Fprintf(c.Stderr, "%s: %v\n", c.Name(), err)
	return 1
}

// AtLeast checks that every named int flag is at least min; the error names
// the first that is not.
func (c *Cmd) AtLeast(min int, names ...string) error {
	for _, name := range names {
		if v := c.Lookup(name).Value.(flag.Getter).Get().(int); v < min {
			return fmt.Errorf("-%s=%d must be at least %d", name, v, min)
		}
	}
	return nil
}

// Order registers -order, the order of CRW's commit steps; scope prefixes
// its help. Ascending parses the value.
func (c *Cmd) Order(scope string) *string {
	return c.String("order", "desc", scope+"commit order: desc (faithful) or asc (ablation)")
}

// Ascending parses an -order value: desc is the paper's order, asc the
// ablation.
func Ascending(order string) (bool, error) {
	switch order {
	case "desc":
		return false, nil
	case "asc":
		return true, nil
	}
	return false, fmt.Errorf("unknown order %q (want desc or asc)", order)
}

// CPUProfile registers -cpuprofile.
func (c *Cmd) CPUProfile() {
	c.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
}

// Profiles registers -cpuprofile and -memprofile.
func (c *Cmd) Profiles() {
	c.CPUProfile()
	c.StringVar(&c.memProfile, "memprofile", "", "write a heap profile to this file on exit")
}

// ProfilePaths returns the -cpuprofile and -memprofile paths, empty when
// unset.
func (c *Cmd) ProfilePaths() (cpu, mem string) { return c.cpuProfile, c.memProfile }

// Telemetry registers -telemetry-out and -chrome-trace; scope prefixes their
// help with the run whose timeline they export.
func (c *Cmd) Telemetry(scope string) {
	c.StringVar(&c.telemetryOut, "telemetry-out", "", scope+`write the metrics timeline JSON to this file ("-" = stdout)`)
	c.StringVar(&c.chromeTrace, "chrome-trace", "", scope+"write the Chrome trace_event JSON to this file (loads in Perfetto / chrome://tracing)")
}

// WantsTelemetry reports whether -telemetry-out or -chrome-trace is set.
func (c *Cmd) WantsTelemetry() bool { return c.telemetryOut != "" || c.chromeTrace != "" }

// WriteTelemetry writes tel to the -telemetry-out and -chrome-trace files.
func (c *Cmd) WriteTelemetry(tel *agree.Telemetry) error {
	if err := c.WriteFile(c.telemetryOut, tel.MetricsJSON()); err != nil {
		return err
	}
	return c.WriteFile(c.chromeTrace, tel.ChromeTrace())
}

// WriteFile writes an artifact (already-rendered bytes) to path. An empty
// path is a no-op; "-" writes to stdout.
func (c *Cmd) WriteFile(path string, data []byte) error {
	switch path {
	case "":
		return nil
	case "-":
		_, err := c.Stdout.Write(append(data, '\n'))
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// startCPU begins a CPU profile written to path and returns the function
// that stops it and closes the file. An empty path is a no-op with a
// callable stop.
func startCPU(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		return nil
	}, nil
}

// writeHeap writes the heap profile to path after a GC, so the profile
// holds live objects rather than garbage. An empty path is a no-op.
func writeHeap(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("mem profile: %w", err)
	}
	runtime.GC()
	err = pprof.WriteHeapProfile(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("mem profile: %w", err)
	}
	return nil
}
