package main

// trace.go is the benchmark's own span recorder. Spans are taken from the
// benchmark's files around calls into each layer's public functions — the
// program itself is not edited (that is ROADMAP item 5c) — kept in memory,
// and written as Chrome trace_event JSON when the run ends.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Parent names the ladder rung whose
// call contains this one inside the program; Op identifies the operation
// (the index of the configuration, seed or session) all rungs of one ladder
// step share.
type span struct {
	Name   string
	Parent string
	Op     int
	Start  int64 // ns since the tracer started
	End    int64
}

// tracer collects spans. A nil tracer records nothing, so the same workload
// code runs traced and untraced.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now returns the tracer clock, 0 on a nil tracer.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// add records a span that started at start (a value of now) and ends now.
func (t *tracer) add(name, parent string, op int, start int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, Start: start, End: t.now()})
}

// meanNs returns the mean duration of the spans with the given name.
func (t *tracer) meanNs(name string) float64 {
	var sum int64
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.End - s.Start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// perOpNs is the robust per-operation cost of a rung that visits the same
// operations pass after pass: the median over the passes for each operation,
// then the mean over the operations. A host stall in one pass does not move
// it, which a plain mean over 50-microsecond spans would not survive.
func (t *tracer) perOpNs(name string) float64 {
	byOp := map[int][]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			byOp[s.Op] = append(byOp[s.Op], float64(s.End-s.Start))
		}
	}
	if len(byOp) == 0 {
		return 0
	}
	sum := 0.0
	for _, ns := range byOp {
		sum += fast(ns)
	}
	return sum / float64(len(byOp))
}

// selfNs is a rung's self time under the aggregate agg (meanNs or perOpNs):
// its cost minus the cost of every rung that names it as parent. The rungs
// run one after another on the same operations (spans inside the program are
// a later change), so containment is declared by Parent, not observed on the
// clock — and a self time within the ladder's noise can read below zero.
func (t *tracer) selfNs(name string, agg func(string) float64) float64 {
	self := agg(name)
	seen := map[string]bool{}
	for _, s := range t.spans {
		if s.Parent == name && !seen[s.Name] {
			seen[s.Name] = true
			self -= agg(s.Name)
		}
	}
	return self
}

// chromeEvent is one event of the trace_event format: a complete ("X") event
// per span, a metadata ("M") event naming each track.
type chromeEvent struct {
	Name string     `json:"name"`
	Ph   string     `json:"ph"`
	Ts   float64    `json:"ts"`
	Dur  float64    `json:"dur,omitempty"`
	Pid  int        `json:"pid"`
	Tid  int        `json:"tid"`
	Args chromeArgs `json:"args"`
}

// chromeArgs carries a span's operation id and parent, or a track's name.
type chromeArgs struct {
	Name   string `json:"name,omitempty"`
	Op     *int   `json:"op,omitempty"`
	Parent string `json:"parent,omitempty"`
}

// chromeTrace renders the spans as a trace_event JSON array, one track per
// span name, loadable in Perfetto and chrome://tracing.
func (t *tracer) chromeTrace() ([]byte, error) {
	tids := map[string]int{}
	events := make([]chromeEvent, 0, len(t.spans)+16)
	for i := range t.spans {
		s := &t.spans[i]
		tid, ok := tids[s.Name]
		if !ok {
			tid = len(tids) + 1
			tids[s.Name] = tid
			events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: chromeArgs{Name: s.Name}})
		}
		events = append(events, chromeEvent{Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3, Pid: 1, Tid: tid,
			Args: chromeArgs{Op: &s.Op, Parent: s.Parent}})
	}
	return json.Marshal(events)
}

// write stores the Chrome trace under dir and returns the file's path.
func (t *tracer) write(dir, name string) (string, error) {
	data, err := t.chromeTrace()
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, data, 0o644)
}
