package main

// compare.go judges two results files against the bounds the benchmark
// fixed, one verdict per (end-to-end metric, workload), every ratio with its
// base — the rule of the choosing-metrics guide, section 6.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// Verdicts.
const (
	vImproved   = "improved"
	vRegressed  = "regressed"
	vUnchanged  = "unchanged"
	vUnresolved = "unresolved"
)

// spreadOf is the run-to-run spread of a summary as a share of its median:
// the interquartile range when the samples are kept, the range otherwise.
func spreadOf(s summary) float64 {
	if s.Value == 0 {
		return 0
	}
	if len(s.Samples) >= 4 {
		return spread(s.Samples)
	}
	return (s.Max - s.Min) / math.Abs(s.Value)
}

// verdict compares b against the base a for one metric and also returns the
// ratio b/a and the wider of the two spreads. A change within the bound is
// unchanged; beyond it, it is a regression or an improvement — unless the
// spread is wider than the bound and the two sample ranges interleave, which
// leaves the pairing unresolved.
func verdict(m metricDef, a, b summary) (v string, ratio, spreadMax float64) {
	if a.Value == 0 {
		if b.Value == 0 {
			return vUnchanged, 1, 0
		}
		return vUnresolved, math.Inf(1), 0
	}
	ratio = b.Value / a.Value
	worse := ratio - 1 // relative change in the metric's bad direction
	if m.Better == "higher" {
		worse = 1 - ratio
	}
	spreadMax = math.Max(spreadOf(a), spreadOf(b))
	interleave := !(b.Max < a.Min || b.Min > a.Max)
	switch {
	case a.Value == b.Value:
		v = vUnchanged
	case spreadMax > m.Bound && interleave && a.N > 1:
		v = vUnresolved
	case worse > m.Bound:
		v = vRegressed
	case -worse > math.Max(m.Bound, spreadMax):
		v = vImproved
	default:
		v = vUnchanged
	}
	return v, ratio, spreadMax
}

func loadResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints one row per (workload, end-to-end metric) and fails
// when any pairing regressed.
func compareFiles(w io.Writer, paths []string) error {
	if len(paths) != 2 {
		return errors.New("usage: -compare <base.json> <change.json>")
	}
	a, err := loadResults(paths[0])
	if err != nil {
		return err
	}
	b, err := loadResults(paths[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "base   %s (commit %s, seed %d)\nchange %s (commit %s, seed %d)\n",
		paths[0], a.Commit, a.Seed, paths[1], b.Commit, b.Seed)
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		fmt.Fprintln(w, "warning: seed or run length differ; simulated metrics are only comparable for one seed")
	}
	fmt.Fprintf(w, "%-15s %-24s %14s %14s %9s %8s %7s  %s\n",
		"workload", "metric", "base", "change", "change/base", "spread", "bound", "verdict")
	regressed := 0
	for _, name := range workloadNames {
		ra, rb := a.Workloads[name], b.Workloads[name]
		if ra == nil || rb == nil || ra.Untraced == nil || rb.Untraced == nil {
			continue
		}
		for _, m := range slices.Concat(endToEnd, hostTime, simEndToEnd) {
			sa, okA := ra.Untraced.EndToEnd[m.Name]
			sb, okB := rb.Untraced.EndToEnd[m.Name]
			if !okA || !okB {
				continue
			}
			v, ratio, sp := verdict(m, sa, sb)
			if v == vRegressed {
				regressed++
			}
			fmt.Fprintf(w, "%-15s %-24s %14.6g %14.6g %9.4f %7.1f%% %6.0f%%  %s\n",
				name, m.Name, sa.Value, sb.Value, ratio, 100*sp, 100*m.Bound, v)
		}
		for _, key := range sortedKeys(ra.Untraced.Digests) {
			same := "equal"
			if ra.Untraced.Digests[key] != rb.Untraced.Digests[key] {
				same = "DIFFERENT"
			}
			fmt.Fprintf(w, "%-15s %-24s %14s %14s  %s\n", name, key, ra.Untraced.Digests[key], rb.Untraced.Digests[key], same)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d (metric, workload) pairings regressed", regressed)
	}
	return nil
}
