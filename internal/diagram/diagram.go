// Package diagram renders execution transcripts as ASCII space-time
// diagrams: one column per process, one block of lines per round, with
// message arrows, crashes, decisions and halts. It turns the trace of a
// counterexample or a worst-case schedule into something a reader can check
// against the paper's proofs at a glance.
package diagram

import (
	"fmt"
	"strings"

	"repro/internal/trace"
)

// Render produces a space-time diagram for an n-process execution from its
// transcript.
func Render(log *trace.Log, n int) string {
	if log == nil || log.Len() == 0 {
		return "(empty trace)\n"
	}
	var b strings.Builder

	// Group events by round, preserving order within a round.
	rounds := map[int][]trace.Event{}
	maxRound := 0
	for _, e := range log.Events() {
		rounds[e.Round] = append(rounds[e.Round], e)
		if e.Round > maxRound {
			maxRound = e.Round
		}
	}

	// Header: process columns.
	b.WriteString("      ")
	for p := 1; p <= n; p++ {
		fmt.Fprintf(&b, "%-6s", fmt.Sprintf("p%d", p))
	}
	b.WriteByte('\n')

	crashed := map[int]bool{}
	halted := map[int]bool{}
	for r := 0; r <= maxRound; r++ {
		evs := rounds[r]
		if len(evs) == 0 {
			continue
		}
		fmt.Fprintf(&b, "r%-4d ", r)
		// Status line: process lifecycle at the start of the round.
		for p := 1; p <= n; p++ {
			switch {
			case crashed[p]:
				b.WriteString("✗     ")
			case halted[p]:
				b.WriteString("■     ")
			default:
				b.WriteString("│     ")
			}
		}
		b.WriteByte('\n')

		for _, e := range evs {
			switch e.Kind {
			case trace.KindSend:
				fmt.Fprintf(&b, "      %s\n", arrow(e, n))
			case trace.KindDrop:
				fmt.Fprintf(&b, "      %s (dropped)\n", arrow(e, n))
			case trace.KindCrash:
				crashed[e.From] = true
				fmt.Fprintf(&b, "      %s✗ CRASH p%d %s\n", pad(e.From), e.From, e.Detail)
			case trace.KindDecide:
				fmt.Fprintf(&b, "      %s● DECIDE p%d %s\n", pad(e.From), e.From, e.Detail)
			case trace.KindHalt:
				halted[e.From] = true
				fmt.Fprintf(&b, "      %s■ HALT p%d\n", pad(e.From), e.From)
			}
		}
	}

	// Footer: final decisions summary.
	b.WriteString("\nlegend: │ alive  ✗ crashed  ■ returned  ● decision  -> data  => control\n")
	return b.String()
}

// pad indents to process p's column.
func pad(p int) string { return strings.Repeat(" ", (p-1)*6) }

// arrow renders a message edge between two process columns.
func arrow(e trace.Event, n int) string {
	from, to := e.From, e.To
	lo, hi := from, to
	if lo > hi {
		lo, hi = hi, lo
	}
	head := "->"
	if e.Detail == "control" {
		head = "=>"
	}
	width := (hi-lo)*6 - 1
	if width < 1 {
		width = 1
	}
	line := strings.Repeat("-", width)
	if from < to {
		return fmt.Sprintf("%s%s%s%s p%d%s p%d", pad(lo), "+", line, head, from, head, to)
	}
	return fmt.Sprintf("%s<%s%s p%d%s p%d", pad(lo), line, "+", from, head, to)
}
