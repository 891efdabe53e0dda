package main

import (
	"flag"
	"testing"

	"repro/internal/cli/clitest"
)

var update = flag.Bool("update", false, "rewrite testdata/ from the current output")

func TestCommand(t *testing.T) { clitest.TestCommand(t, command, *update) }
