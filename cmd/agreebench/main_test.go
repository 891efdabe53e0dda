package main

import (
	"flag"
	"testing"

	"repro/internal/cli"
)

var update = flag.Bool("update", false, "rewrite testdata/ from the current output")

func TestCommand(t *testing.T) { cli.TestCommand(t, command, *update) }
