package experiments_test

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestAllExperimentsPass(t *testing.T) {
	// Every experiment must regenerate with a PASS verdict: this is the
	// repository's end-to-end reproduction check.
	if testing.Short() {
		t.Skip("experiments are exhaustive; skipped in -short mode")
	}
	for _, tab := range experiments.All() {
		tab := tab
		t.Run(tab.ID, func(t *testing.T) {
			if !strings.HasPrefix(tab.Verdict, "PASS") {
				t.Errorf("%s verdict: %s\n%s", tab.ID, tab.Verdict, tab.String())
			}
			if len(tab.Rows) == 0 {
				t.Errorf("%s produced no rows", tab.ID)
			}
		})
	}
}

func TestByID(t *testing.T) {
	for _, id := range []string{"E1", "e3", "E10", "E11", "e12", "E13", "E14", "E15", "e16"} {
		if tab := experiments.ByID(id); tab == nil {
			t.Errorf("ByID(%q) = nil", id)
		}
	}
	if tab := experiments.ByID("E99"); tab != nil {
		t.Error("ByID(E99) should be nil")
	}
}

func TestAllCoversEveryID(t *testing.T) {
	tabs := experiments.All()
	if len(tabs) != 16 {
		t.Fatalf("All() returned %d experiments, want 16", len(tabs))
	}
	for i, e := range experiments.List() {
		if tabs[i].ID != e.ID || tabs[i].Title != e.Title {
			t.Errorf("All()[%d] is %s %q, List() says %s %q", i, tabs[i].ID, tabs[i].Title, e.ID, e.Title)
		}
	}
	seen := map[string]bool{}
	for _, tab := range tabs {
		if seen[tab.ID] {
			t.Errorf("duplicate experiment id %s", tab.ID)
		}
		seen[tab.ID] = true
		if byID := experiments.ByID(tab.ID); byID == nil || byID.ID != tab.ID {
			t.Errorf("ByID(%s) inconsistent with All()", tab.ID)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &experiments.Table{
		ID:      "T",
		Title:   "test",
		Claim:   "c",
		Columns: []string{"a", "bb"},
	}
	tab.AddRow(1, 2.5)
	tab.AddRow("x", true)
	s := tab.String()
	for _, want := range []string{"T — test", "paper claim: c", "a", "bb", "2.5", "true"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering lacks %q:\n%s", want, s)
		}
	}
}
