// Command agreeperf is the repository's benchmark: five workloads, each run
// for a fixed time in a fresh process, with host-time and simulated-time
// end-to-end metrics from an untraced run and a per-layer cost ledger from a
// separate traced run. See benchmarks/README.md.
//
// Three ways to call it (from the checkout root, through benchmarks/run.sh):
//
//	run.sh --workload W --seed S --seconds T --trace 0|1   one workload; the last
//	                                                       line of stdout is the result JSON
//	run.sh -seed S [-trace 1] [-smoke]                     all five workloads, each in its
//	                                                       own process; appends a results file
//	run.sh -compare a.json b.json                          verdict per (metric, workload)
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// detailPrefix marks the line a single-workload run prints before its result
// JSON; the suite reads the full record from it.
const detailPrefix = "agreeperf-detail "

func main() {
	var (
		workload  = flag.String("workload", "", "run this one workload in this process and print its result JSON as the last line")
		seed      = flag.Int64("seed", 1, "seed of the benchmark's input generator")
		seconds   = flag.Float64("seconds", 10, "measured time per workload run")
		trace     = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		smoke     = flag.Bool("smoke", false, "1% scale: a hundredth of the measured time, short probes, one set-up")
		workloads = flag.String("workloads", strings.Join(workloadNames, ","), "suite: comma-separated workloads to run")
		outDir    = flag.String("out", filepath.Join("benchmarks", "results"), "suite: directory the results file is appended to")
		compare   = flag.Bool("compare", false, "compare two results files: -compare a.json b.json")
		setupOnly = flag.Bool("setup-only", false, "set the workload up and exit: the process a run starts to time set-up")
	)
	flag.Parse()
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "agreeperf:", err)
		os.Exit(1)
	}
	switch {
	case *compare:
		err = compareFiles(os.Stdout, flag.Args())
	case *setupOnly:
		runtime.GOMAXPROCS(procsFor(*workload))
		_, err = setUp(".", *workload, *seed, *smoke)
	case *workload != "":
		o := runOpts{Root: ".", Workload: *workload, Seed: *seed, Seconds: *seconds,
			Trace: *trace == 1, Smoke: *smoke, Self: self, Start: processStart}
		if o.Smoke {
			o.Seconds /= 100
		}
		err = runOne(o)
	default:
		err = suite(self, strings.Split(*workloads, ","), *seed, *seconds, *trace == 1, *smoke, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "agreeperf:", err)
		os.Exit(1)
	}
}

// errIncorrect makes the process exit non-zero after the result was printed.
var errIncorrect = errors.New("a correctness check failed")

// runOne runs one workload and prints the detail line followed by the
// result line the driver reads.
func runOne(o runOpts) error {
	if _, err := os.Stat(filepath.Join(o.Root, "scenarios")); err != nil {
		return fmt.Errorf("run from the checkout root (no scenarios/ here): %w", err)
	}
	d, err := runWorkload(o)
	if err != nil {
		return err
	}
	for _, n := range d.Notes {
		fmt.Fprintln(os.Stderr, "agreeperf: check failed:", n)
	}
	full, err := json.Marshal(d)
	if err != nil {
		return err
	}
	fmt.Println(detailPrefix + string(full))
	res, err := d.result()
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !d.Correct {
		return errIncorrect
	}
	return nil
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a single-workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result renders the driver-facing record: every end-to-end metric for an
// untraced run, every per-layer metric for a traced one. The driver wants
// every declared metric on the line, so a layer metric of a layer the
// workload does not exercise reads 0; a metric the workload must emit and did
// not is an error.
func (d *detail) result() (result, error) {
	r := result{Correct: d.Correct, Attempted: d.Attempted, Failed: d.Failed, Metrics: map[string]metricValue{}}
	defs, have := endToEnd, d.EndToEnd
	if d.Traced {
		defs, have = driverPerLayer(), d.PerLayer
	}
	for _, m := range defs {
		s, ok := have[m.Name]
		skipped := d.NoCmd && strings.HasPrefix(m.Name, "cmd.")
		if !ok && m.emittedBy(d.Workload) && !skipped {
			return r, fmt.Errorf("%s did not emit %s", d.Workload, m.Name)
		}
		r.Metrics[m.Name] = metricValue{Value: s.Value, Unit: m.Unit}
	}
	return r, nil
}

// ---- suite ----------------------------------------------------------------

// hostInfo is the host baseline block of a results file.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	LoadAvg    string `json:"loadavg_at_start"`
	Quiet      string `json:"quiet_host_note"`
}

func readHost() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", LoadAvg: "unknown", Quiet: "load average unavailable"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		h.LoadAvg = strings.TrimSpace(string(data))
		if load1, err := strconv.ParseFloat(strings.Fields(h.LoadAvg)[0], 64); err == nil {
			h.Quiet = "quiet: 1-minute load below 0.5 at start"
			if load1 >= 0.5 {
				h.Quiet = fmt.Sprintf("NOT quiet: 1-minute load %.2f at start; host-time numbers are suspect", load1)
			}
		}
	}
	return h
}

// resultsFile is one appended record under benchmarks/results/.
type resultsFile struct {
	Schema    string             `json:"schema"`
	Timestamp string             `json:"timestamp_utc"`
	Commit    string             `json:"commit"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds_per_run"`
	Smoke     bool               `json:"smoke"`
	Host      hostInfo           `json:"host"`
	Frozen    map[string]int     `json:"frozen_sizes"`
	Workloads map[string]*record `json:"workloads"`
}

// record holds the untraced and, when it ran, the traced detail of a workload.
type record struct {
	Untraced *detail `json:"untraced"`
	Traced   *detail `json:"traced,omitempty"`
}

// frozenSizes are the sizes the workloads are built from; a results file
// carries them so two files are known to be comparable.
func frozenSizes() map[string]int {
	return map[string]int{
		"sweep_configs":      len(genL(1)),
		"fuzz_batch_seeds":   fuzzBatchSeeds,
		"fuzz_block_batches": fuzzBlock,
		"serve_session_cmds": serveCmds,
		"serve_block":        len(genServeBlock(1)),
		"serve_batch_limit":  serveBatchLim,
		"setup_processes":    setupRepeats,
		"repetitions":        reps,
	}
}

// child runs one workload in a fresh process and returns its detail record.
func child(self, name string, seed int64, seconds float64, trace, smoke bool) (*detail, error) {
	args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0"}
	if trace {
		args[len(args)-1] = "1"
	}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	for _, line := range bytes.Split(stdout, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte(detailPrefix)); ok {
			var d detail
			if err := json.Unmarshal(rest, &d); err != nil {
				return nil, fmt.Errorf("%s: bad detail line: %w", name, err)
			}
			return &d, nil // an incorrect run still reports; the suite fails at the end
		}
	}
	return nil, fmt.Errorf("%s: no result (%v)", name, runErr)
}

// suite runs the named workloads, each in its own process, prints every
// metric by name with its unit, one row per workload, and appends the results
// file. A correctness failure anywhere makes it fail.
func suite(self string, names []string, seed int64, seconds float64, trace, smoke bool, outDir string) error {
	var err error
	file := resultsFile{Schema: "agreeperf/1", Timestamp: time.Now().UTC().Format("20060102T150405Z"),
		Commit: shortCommit(), Seed: seed, Seconds: seconds, Smoke: smoke, Host: readHost(),
		Frozen: frozenSizes(), Workloads: map[string]*record{}}
	fmt.Printf("agreeperf seed=%d seconds=%g gomaxprocs=%d %s\nhost: %s, %s\n",
		seed, seconds, file.Host.GOMAXPROCS, file.Host.GoVersion, file.Host.CPUModel, file.Host.Quiet)
	incorrect := false
	for _, name := range names {
		rec := &record{}
		if rec.Untraced, err = child(self, name, seed, seconds, false, smoke); err != nil {
			return err
		}
		printDetail(rec.Untraced)
		incorrect = incorrect || !rec.Untraced.Correct
		if trace {
			if rec.Traced, err = child(self, name, seed, seconds, true, smoke); err != nil {
				return err
			}
			printDetail(rec.Traced)
			incorrect = incorrect || !rec.Traced.Correct
		}
		file.Workloads[name] = rec
	}
	// The engines price one execution differently; they must not change it.
	want := ""
	for _, name := range sweeps {
		rec := file.Workloads[name]
		if rec == nil {
			continue
		}
		got := rec.Untraced.Digests["result_digest"]
		if want == "" {
			want = got
		}
		if got != want {
			fmt.Fprintf(os.Stderr, "agreeperf: check failed: result_digest of %s is %s, another sweep printed %s\n", name, got, want)
			incorrect = true
		}
	}
	path, err := appendResults(outDir, &file)
	if err != nil {
		return err
	}
	fmt.Println("results:", path)
	if incorrect {
		return errIncorrect
	}
	return nil
}

// printDetail prints one workload's metrics, one per row, by name with unit.
func printDetail(d *detail) {
	kind, metrics := "end-to-end (untraced)", d.EndToEnd
	if d.Traced {
		kind, metrics = "per-layer (traced)", d.PerLayer
	}
	fmt.Printf("\n%s  %s  correct=%v attempted=%d failed=%d failed_ops_share=%g batches=%d\n",
		d.Workload, kind, d.Correct, d.Attempted, d.Failed, float64(d.Failed)/float64(max(d.Attempted, 1)), d.Batches)
	if d.Workload == wlServe && !d.Traced {
		fmt.Println("  open loop: Poisson arrivals in simulated time; generator lateness is 0 by construction")
	}
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := metrics[name]
		fmt.Printf("  %-32s %16.6g %-8s", name, s.Value, s.Unit)
		if s.N > 1 {
			fmt.Printf(" min %.6g max %.6g n=%d", s.Min, s.Max, s.N)
		}
		fmt.Println()
	}
	for _, name := range sortedKeys(d.Digests) {
		fmt.Printf("  %-32s %s\n", name, d.Digests[name])
	}
	for _, name := range sortedKeys(d.Series) {
		fmt.Printf("  series %-25s", name)
		for _, p := range d.Series[name] {
			fmt.Printf(" n=%d:%.0fns", p.N, p.Ns)
		}
		fmt.Println()
	}
	if d.TraceFile != "" {
		fmt.Println("  trace:", d.TraceFile)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// shortCommit asks git for the checkout's commit; "nogit" outside a repository.
func shortCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "nogit"
	}
	return strings.TrimSpace(string(out))
}

// appendResults writes the record as a new file and never overwrites one.
func appendResults(dir string, file *resultsFile) (string, error) {
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	base := filepath.Join(dir, file.Timestamp+"-"+file.Commit)
	for k := 0; ; k++ {
		path := base + ".json"
		if k > 0 {
			path = fmt.Sprintf("%s-%d.json", base, k)
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if errors.Is(err, os.ErrExist) {
			continue
		}
		if err != nil {
			return "", err
		}
		if _, err := f.Write(append(data, '\n')); err != nil {
			f.Close()
			return "", err
		}
		return path, f.Close()
	}
}
