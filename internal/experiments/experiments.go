// Package experiments regenerates every quantitative claim of the paper as a
// printable table. Each experiment E1–E16 corresponds to a row of the
// experiment index in DESIGN.md; EXPERIMENTS.md records the paper-claim vs
// measured comparison produced by these functions.
//
// The functions are deterministic: every table can be regenerated exactly
// with cmd/agreebench, and the root-level benchmarks time their underlying
// workloads.
package experiments

import (
	"fmt"
	"slices"
	"strings"

	"repro/agree"
)

// sweepOpts are the agree.Sweep options applied by the experiments that
// batch their configurations through the sweep harness (E1, E4, E9).
// cmd/agreebench sets them from its -workers / -crosscheck flags.
var sweepOpts agree.SweepOptions

// SetSweepOptions configures how the batched experiments execute: worker
// count for the parallel sweep and cross-engine checking. The tables
// produced are identical for every option combination (the sweep is
// deterministic); only wall-clock time and the depth of validation change.
// It also resets the engine-pool accounting reported by PoolUsage.
func SetSweepOptions(o agree.SweepOptions) {
	sweepOpts = o
	poolBuilt, poolReuses = 0, 0
}

// poolBuilt / poolReuses accumulate the engine-pool account across every
// batched sweep run since the last SetSweepOptions.
var poolBuilt, poolReuses int

// batchSweep is the single sweep entry point of the batched experiments: it
// runs agree.Sweep and folds the engine construction/reuse account into the
// package accumulator so callers (cmd/agreebench) can report how much work
// the Reusable engines saved across a -workers run.
func batchSweep(configs []agree.Config, opts agree.SweepOptions) *agree.SweepReport {
	sr := agree.Sweep(configs, opts)
	poolBuilt += sr.Aggregate.EnginesBuilt
	poolReuses += sr.Aggregate.EngineReuses
	return sr
}

// PoolUsage returns the engine-pool account accumulated by batched
// experiments since the last SetSweepOptions: engines constructed and jobs
// served by an already-built (reused) engine.
func PoolUsage() (built, reuses int) { return poolBuilt, poolReuses }

// Table is a rendered experiment result.
type Table struct {
	// ID is the experiment identifier (E1..E16).
	ID string
	// Title describes the experiment.
	Title string
	// Claim is the paper's claim being checked.
	Claim string
	// Columns are the column headers.
	Columns []string
	// Rows are the data rows.
	Rows [][]string
	// Verdict summarizes whether the measured behaviour matches the claim.
	Verdict string
}

// AddRow appends a row built from arbitrary values.
func (t *Table) AddRow(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = trimFloat(x)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// trimFloat renders floats compactly (3 decimals, trailing zeros trimmed).
func trimFloat(f float64) string {
	s := fmt.Sprintf("%.3f", f)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "paper claim: %s\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	if t.Verdict != "" {
		fmt.Fprintf(&b, "verdict: %s\n", t.Verdict)
	}
	return b.String()
}

// Experiment is one entry of the registry: an id, a title, and the function
// that measures it. Listing experiments runs none of them.
type Experiment struct {
	// ID is the experiment identifier (E1..E16).
	ID string
	// Title describes the experiment.
	Title string
	run   func() *Table
}

// table measures the experiment and stamps its ID and Title on the result.
func (e Experiment) table() *Table {
	t := e.run()
	t.ID, t.Title = e.ID, e.Title
	return t
}

// registry lists every experiment in order; each title is written here once.
var registry = []Experiment{
	{"E1", "CRW decision rounds vs actual faults (worst-case adversary)", e1RoundsVsFaults},
	{"E2", "bit complexity (Theorem 2)", e2BitComplexity},
	{"E3", "time crossover, measured: (f+1)(D+δ) vs min(f+2,t+1)·D on the timed engine", e3Crossover},
	{"E4", "decision rounds: CRW (extended) vs EarlyStop and FloodSet (classic)", e4Baselines},
	{"E5", "exhaustive model checking of the CRW algorithm", e5Exhaustive},
	{"E6", "extended-on-classic simulation overhead", e6Simulation},
	{"E7", "fast-failure-detector consensus time vs extended model", e7FastFD},
	{"E8", "synchronous/asynchronous bridge: CRW round vs MR99 round", e8Bridge},
	{"E9", "total messages: CRW vs flooding baselines", e9Messages},
	{"E10", "ablations: why the ordered second sending step matters", e10Ablation},
	{"E11", "average-case decision rounds under random crashes", e11AverageCase},
	{"E12", "derived δ/D on real LAN profiles", e12LANRealism},
	{"E13", "valency structure of the extended model (Section 5 proof machinery)", e13Valency},
	{"E14", "ablation: unreliable channels break the model", e14LossyChannels},
	{"E15", "ablation: omission faults break the crash-model guarantees", e15Omission},
	{"E16", "timing faults: latency jitter against the synchrony bound (timed engine)", e16TimingFaults},
}

// List returns the registered experiments in order without running any.
func List() []Experiment { return slices.Clone(registry) }

// All runs every experiment and returns the tables in order.
func All() []*Table {
	tables := make([]*Table, len(registry))
	for i, e := range registry {
		tables[i] = e.table()
	}
	return tables
}

// ByID runs the experiment with the given id (E1..E16, any case), or returns
// nil.
func ByID(id string) *Table {
	for _, e := range registry {
		if strings.EqualFold(e.ID, id) {
			return e.table()
		}
	}
	return nil
}

// verdict builds a PASS/FAIL verdict string.
func verdict(ok bool, detail string) string {
	if ok {
		return "PASS — " + detail
	}
	return "FAIL — " + detail
}
