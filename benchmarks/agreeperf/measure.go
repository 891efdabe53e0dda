package main

// measure.go times a workload's batches and measures its set-up.

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/agree"
)

// processStart approximates process start: package variables initialize
// before main runs, a few milliseconds after exec.
var processStart = time.Now()

// reps is the number of repetitions a measured phase is cut into; ops_per_s
// and cpu_ms_per_kop are the median over them.
const reps = 5

// cpuNow returns the user+system CPU time the process has used.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// batchSample is one timed batch.
type batchSample struct {
	wall, cpu time.Duration
	ops       int
}

// measurement is the host-time outcome of one measured phase.
type measurement struct {
	kinds    int           // batch kinds: batch i is of kind i % kinds
	samples  []batchSample // in execution order; whole blocks
	Ops      int
	Failed   int
	AllocsOp float64
	BytesOp  float64
}

// measure runs whole blocks of batches for the given time (at least one
// block) and times each batch, wall clock and CPU. Checking happens between
// the timed calls. Ending on a block boundary keeps the mix of batch kinds,
// and with it every per-operation figure, independent of how many batches the
// host managed. With a tracer, every batch is also recorded as a span of the
// given name.
func measure(w runner, tr *tracer, spanName string, seconds float64) *measurement {
	m := &measurement{kinds: w.kinds()}
	budget := time.Duration(seconds * float64(time.Second))
	var spent time.Duration
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; spent < budget || i%m.kinds != 0; i++ {
		s0 := tr.now()
		c0, t0 := cpuNow(), time.Now()
		w.run(i)
		dt, dc := time.Since(t0), cpuNow()-c0
		tr.add(spanName, "", i, s0)
		ops, failed := w.check(i)
		m.samples = append(m.samples, batchSample{wall: dt, cpu: dc, ops: ops})
		m.Ops, m.Failed = m.Ops+ops, m.Failed+failed
		spent += dt
	}
	runtime.ReadMemStats(&ms1)
	if m.Ops > 0 {
		m.AllocsOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(m.Ops)
		m.BytesOp = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(m.Ops)
	}
	return m
}

// repetitions cuts the measured phase into (up to) reps repetitions of whole
// blocks, the last one taking the remainder, and returns the throughput and
// CPU cost of each: all operations of the repetition over all its timed wall
// seconds, and its CPU milliseconds per 1000 operations. Every batch counts,
// the slow ones (garbage collection, scheduling, the worker pool) included.
// The metrics report the median over the repetitions with their min and max.
func (m *measurement) repetitions() (opsPerS, cpuMsPerKop []float64) {
	blocks := len(m.samples) / m.kinds
	n := min(reps, blocks)
	for k := 0; k < n; k++ {
		from, to := k*(blocks/n)*m.kinds, (k+1)*(blocks/n)*m.kinds
		if k == n-1 {
			to = len(m.samples)
		}
		var wall, cpu time.Duration
		ops := 0
		for _, s := range m.samples[from:to] {
			wall, cpu, ops = wall+s.wall, cpu+s.cpu, ops+s.ops
		}
		if ops > 0 && wall > 0 {
			opsPerS = append(opsPerS, float64(ops)/wall.Seconds())
			cpuMsPerKop = append(cpuMsPerKop, cpu.Seconds()*1e3/float64(ops)*1e3)
		}
	}
	return opsPerS, cpuMsPerKop
}

// fast is the fast-tail estimate of repeated timings of one operation: the
// 2nd percentile, nearest rank. On the hosts this benchmark runs on (a small
// VM whose neighbours disturb the memory system) the timings of one operation
// form a stable fast mode and a heavy slow tail, and the fast tail prices the
// undisturbed operation. The per-layer probes use it; the end-to-end metrics
// do not, because it leaves out what the program itself spends in its slower
// calls.
func fast(v []float64) float64 { return percentile(v, 2) }

// fastOpsPerS is the throughput of one undisturbed block: for each batch kind
// the fast-tail wall time per operation times the kind's mean operation
// count, summed over the kinds. Against ops_per_s it says how much the host's
// interference and the program's own slow batches take.
func (m *measurement) fastOpsPerS() float64 {
	var wall, ops float64
	for kind := 0; kind < m.kinds; kind++ {
		var w, o []float64
		for i := kind; i < len(m.samples); i += m.kinds {
			if s := m.samples[i]; s.ops > 0 {
				w, o = append(w, float64(s.wall)/float64(s.ops)), append(o, float64(s.ops))
			}
		}
		wall, ops = wall+mean(o)*fast(w), ops+mean(o)
	}
	if wall == 0 {
		return 0
	}
	return ops / (wall / 1e9)
}

// batchMs returns every batch's wall time in milliseconds.
func (m *measurement) batchMs() []float64 {
	out := make([]float64, len(m.samples))
	for i, s := range m.samples {
		out[i] = float64(s.wall) / 1e6
	}
	return out
}

// replayCatalog loads and replays scenarios/ once on every engine and fails
// unless every scenario met its expectation.
func replayCatalog(root string) error {
	rep, err := agree.RunScenarios(agree.ScenarioOptions{Dir: filepath.Join(root, "scenarios"), Workers: 1})
	if err != nil {
		return err
	}
	if rep.Failed > 0 {
		return errors.New("scenario catalog replay reported failures")
	}
	return nil
}

// setUp performs what a user pays before the first operation: generate the
// inputs, replay the scenario catalog once, and run the warm-up batches that
// construct and warm the engines.
func setUp(root, name string, seed int64, smoke bool) (runner, error) {
	w, err := newRunner(name, seed, smoke)
	if err != nil {
		return nil, err
	}
	if err := replayCatalog(root); err != nil {
		return nil, err
	}
	n := w.warm()
	if smoke {
		n = 1
	}
	for i := 0; i < n; i++ {
		w.run(i)
	}
	return w, nil
}

// setupRepeats is how many fresh processes a run starts to time set-up;
// setup_s is the median over them.
const setupRepeats = 9

// timeSetUps starts the benchmark's own binary setupRepeats times with
// -setup-only, one process after the other, and returns the wall seconds of
// each from before it is started until it has exited: what a user pays from
// launching the program to its first operation, with nothing warm but the
// operating system's file cache.
func timeSetUps(o runOpts) ([]float64, error) {
	var times []float64
	for k := 0; k < setupRepeats; k++ {
		cmd := exec.Command(o.Self, "-setup-only", "-workload", o.Workload, "-seed", fmt.Sprint(o.Seed))
		cmd.Dir, cmd.Stderr = o.Root, os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up process: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return times, nil
}
