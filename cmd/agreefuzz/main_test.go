package main

import (
	"flag"
	"io"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cli/clitest"
)

var update = flag.Bool("update", false, "rewrite testdata/ from the current output")

func TestCommand(t *testing.T) { clitest.TestCommand(t, command, *update) }

// longCampaigns are the goldens that fuzz 5,000 to 100,000 seeds. Under the
// race detector they take about 11 of TestCommand's 14 s, nearly all of it
// in the instrumented round kernel, so there TestMain leaves them out of
// TestCommand and TestLongCampaignsRace runs each with at most raceSeeds
// seeds. Plain go test runs them in full against their exact output.
var longCampaigns = []string{"readme-laws", "ci-omission", "ci-crash", "probe", "docs-invariants-timed-laws", "ci-timing-faults"}

const raceSeeds = 500

func TestMain(m *testing.M) {
	flag.Parse()
	if skip := flag.Lookup("test.skip"); raceEnabled && skip.Value.String() == "" {
		skip.Value.Set("^TestCommand$/^(" + strings.Join(longCampaigns, "|") + ")$")
	}
	os.Exit(m.Run())
}

// TestLongCampaignsRace runs each long golden campaign under the race
// detector with its -seeds cut to raceSeeds: the worker pool, the
// cross-check and the shrinker run as in the full campaign, and the exit
// code must be the golden's.
func TestLongCampaignsRace(t *testing.T) {
	if !raceEnabled {
		t.Skip("TestCommand runs the long campaigns in full")
	}
	for _, name := range longCampaigns {
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile("testdata/" + name + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.SplitN(string(data), "\n", 3)
			args := strings.Fields(lines[0])[2:]
			for i := range args[:len(args)-1] {
				if n, err := strconv.Atoi(args[i+1]); args[i] == "-seeds" && err == nil {
					args[i+1] = strconv.Itoa(min(n, raceSeeds))
				}
			}
			want, _ := strconv.Atoi(strings.Fields(lines[1])[1])
			if got := command(io.Discard, io.Discard).Run(args); got != want {
				t.Errorf("%v: exit %d, the golden's %d", args, got, want)
			}
		})
	}
}
