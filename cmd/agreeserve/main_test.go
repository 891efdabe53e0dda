package main

import (
	"flag"
	"testing"

	"repro/internal/cli/clitest"
	"repro/internal/leakcheck"
)

var update = flag.Bool("update", false, "rewrite testdata/ from the current output")

func TestCommand(t *testing.T) { clitest.TestCommand(t, command, *update) }

// TestMain fails the binary when goroutines outlive its tests: the service
// runs behind every invocation must have stopped by then.
func TestMain(m *testing.M) { leakcheck.Main(m) }
