// Package scenario defines the repo's declarative scenario file format: a
// named, checked-in description of one consensus run — protocol, system size,
// engines, latency model, fault script — together with the outcome the run is
// expected to produce (verdict class, round bounds, simulated-time bounds).
//
// Scenario files are the durable home of the repo's scenario knowledge.
// Every shrunk fuzzer counterexample, every paper-claim grid point and every
// fault demo that used to live in Go code or CLI flag soup lands here as a
// file under scenarios/, and cmd/agreesim replays the whole catalog on every
// engine forever — a regression found once is re-checked on every CI run.
//
// The format is line-based "key: value" text with '#' comments:
//
//	scenario: crash/worst-case-n8-f2
//	info: coordinator killer forces CRW to its f+1 bound
//	protocol: crw
//	n: 8
//	faults: p1@r1:/0;p2@r2:/0
//	expect: pass
//	rounds: 4
//	decide-round-max: 3
//
// The parser is strict — unknown keys, duplicate keys, out-of-range values
// and fault scripts that do not fit the system size are errors, never
// silently ignored — and serialization is canonical: Parse(s.String()) yields
// a Scenario equal to s, and String is a fixpoint (the FuzzScenarioRoundTrip
// target fuzzes exactly this contract). Comments and key order of a
// hand-written file are not part of the value; rewriting a file through
// String normalizes it.
package scenario

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/check"
	"repro/internal/fuzz"
	"repro/internal/laws"
	"repro/internal/sim"
)

// Verdict classes a scenario can expect (Expect.Verdict) and a run can
// produce (Classify). The law class is open-ended: "law:<name>" for any law
// of the internal/laws catalog.
const (
	// VerdictPass: the run satisfies uniform consensus, the protocol's round
	// bound (crash-model runs) and every standing law.
	VerdictPass = "pass"
	// VerdictValidity: a process decided a value nobody proposed.
	VerdictValidity = "validity"
	// VerdictAgreement: two processes decided differently.
	VerdictAgreement = "agreement"
	// VerdictTermination: a surviving process never decided.
	VerdictTermination = "termination"
	// VerdictRoundBound: a decision landed beyond the protocol's bound.
	VerdictRoundBound = "round-bound"
	// VerdictNoProgress: the engine exhausted the horizon with undecided
	// processes still alive (sim.ErrNoProgress).
	VerdictNoProgress = "no-progress"
	// VerdictError: any other execution failure.
	VerdictError = "error"
	// lawPrefix tags law-violation verdicts: "law:" + the law's name.
	lawPrefix = "law:"
)

// Latency is the format-level latency model of a scenario. It mirrors the
// public agree.LatencySpec kinds without importing package agree (the agree
// scenario runner imports this package, not the other way around).
type Latency struct {
	// Kind is "", "fixed", "profile" or "jitter". The empty kind is no
	// latency model: round engines run the round abstraction, the timed
	// engine its default within-bound model.
	Kind string
	// D is the synchrony bound, Delta the control-step extension (fixed and
	// jitter kinds).
	D, Delta float64
	// Floor and Spread shape the jitter distribution: data latency is
	// Floor + U[0, Spread).
	Floor, Spread float64
	// Seed seeds the jitter's pure per-message hash.
	Seed int64
	// Profile names a LAN profile ("100m", "1g", "10g").
	Profile string
}

// IsZero reports whether no latency model is configured.
func (l Latency) IsZero() bool { return l.Kind == "" }

// WithinBound reports whether no sampled latency can exceed the synchrony
// bound. Out-of-bound scenarios inject timing faults and are judged on the
// consensus properties alone, exactly like omission scenarios.
func (l Latency) WithinBound() bool {
	if l.Kind == "jitter" {
		return l.Floor+l.Spread <= l.D
	}
	return true
}

// String renders the latency in the scenario file syntax ("" for none).
func (l Latency) String() string {
	switch l.Kind {
	case "fixed":
		return fmt.Sprintf("fixed d=%s delta=%s", g(l.D), g(l.Delta))
	case "profile":
		return "profile " + l.Profile
	case "jitter":
		return fmt.Sprintf("jitter seed=%d d=%s delta=%s floor=%s spread=%s",
			l.Seed, g(l.D), g(l.Delta), g(l.Floor), g(l.Spread))
	default:
		return ""
	}
}

// g renders a float with the minimal digits that round-trip exactly.
func g(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// validate rejects latencies that cannot define a round (mirroring the
// agree.LatencySpec rules) and non-finite parameters, which could not
// round-trip through the text format.
func (l Latency) validate() error {
	for _, f := range []float64{l.D, l.Delta, l.Floor, l.Spread} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("scenario: latency parameter %s is not finite", g(f))
		}
	}
	switch l.Kind {
	case "":
		if l != (Latency{}) {
			return errors.New("scenario: latency parameters without a latency kind")
		}
	case "fixed":
		if l.D <= 0 {
			return fmt.Errorf("scenario: latency d=%s must be positive", g(l.D))
		}
		if l.Delta < 0 {
			return fmt.Errorf("scenario: latency delta=%s is negative", g(l.Delta))
		}
	case "profile":
		switch l.Profile {
		case "100m", "1g", "10g":
		default:
			return fmt.Errorf("scenario: unknown LAN profile %q (known: 100m, 1g, 10g)", l.Profile)
		}
	case "jitter":
		if l.D <= 0 {
			return fmt.Errorf("scenario: latency d=%s must be positive", g(l.D))
		}
		if l.Delta < 0 {
			return fmt.Errorf("scenario: latency delta=%s is negative", g(l.Delta))
		}
		if l.Floor < 0 {
			return fmt.Errorf("scenario: latency floor=%s is negative", g(l.Floor))
		}
		if l.Spread < 0 {
			return fmt.Errorf("scenario: latency spread=%s is negative", g(l.Spread))
		}
	default:
		return fmt.Errorf("scenario: unknown latency kind %q (want fixed, profile or jitter)", l.Kind)
	}
	return nil
}

// parseLatency decodes the latency file syntax: "fixed d=1 delta=0.1",
// "profile 1g", "jitter seed=1 d=1 delta=0.1 floor=0.6 spread=2.4". Key=value
// parameters may appear in any order but each exactly once.
func parseLatency(text string) (Latency, error) {
	fields := strings.Fields(text)
	if len(fields) == 0 {
		return Latency{}, errors.New("scenario: empty latency value")
	}
	l := Latency{Kind: fields[0]}
	params := map[string]string{}
	for _, f := range fields[1:] {
		k, v, ok := strings.Cut(f, "=")
		if l.Kind == "profile" {
			// The profile kind takes a bare name, not key=value pairs.
			if ok || l.Profile != "" {
				return Latency{}, fmt.Errorf("scenario: latency %q: profile takes exactly one bare profile name", text)
			}
			l.Profile = f
			continue
		}
		if !ok || k == "" || v == "" {
			return Latency{}, fmt.Errorf("scenario: latency %q: bad parameter %q (want key=value)", text, f)
		}
		if _, dup := params[k]; dup {
			return Latency{}, fmt.Errorf("scenario: latency %q: duplicate parameter %q", text, k)
		}
		params[k] = v
	}
	want := map[string]bool{}
	switch l.Kind {
	case "fixed":
		want["d"], want["delta"] = true, true
	case "jitter":
		want["seed"], want["d"], want["delta"], want["floor"], want["spread"] = true, true, true, true, true
	case "profile":
		if l.Profile == "" {
			return Latency{}, fmt.Errorf("scenario: latency %q: profile name missing", text)
		}
	default:
		return Latency{}, fmt.Errorf("scenario: unknown latency kind %q (want fixed, profile or jitter)", l.Kind)
	}
	for k := range params {
		if !want[k] {
			return Latency{}, fmt.Errorf("scenario: latency %q: unknown parameter %q", text, k)
		}
	}
	for k := range want {
		v, ok := params[k]
		if !ok {
			return Latency{}, fmt.Errorf("scenario: latency %q: parameter %q missing", text, k)
		}
		var err error
		if k == "seed" {
			l.Seed, err = strconv.ParseInt(v, 10, 64)
		} else {
			var f float64
			f, err = strconv.ParseFloat(v, 64)
			switch k {
			case "d":
				l.D = f
			case "delta":
				l.Delta = f
			case "floor":
				l.Floor = f
			case "spread":
				l.Spread = f
			}
		}
		if err != nil {
			return Latency{}, fmt.Errorf("scenario: latency %q: bad %s value %q", text, k, v)
		}
	}
	if err := l.validate(); err != nil {
		return Latency{}, err
	}
	return l, nil
}

// Expect is the outcome a scenario pins: the verdict class plus optional
// round and simulated-time bounds. Zero-valued bounds are unchecked.
type Expect struct {
	// Verdict is the expected verdict class: VerdictPass, a violation class,
	// or "law:<name>" for a law violation.
	Verdict string
	// Rounds, when positive, is the exact number of rounds the engine must
	// execute. Rounds are engine-independent for the order-insensitive fault
	// scripts scenarios carry, so one value pins all engines.
	Rounds int
	// DecideRoundMax, when positive, is the latest round any process may
	// decide in.
	DecideRoundMax int
	// SimTime, when positive, is the exact simulated completion time
	// (relative tolerance 1e-9). Checked on timed engines only: the round
	// engines execute the same run but do not price it.
	SimTime float64
	// SimTimeMax, when positive, is an upper bound on the simulated
	// completion time. Checked on timed engines only.
	SimTimeMax float64
}

// validVerdict reports whether v names a known verdict class.
func validVerdict(v string) bool {
	switch v {
	case VerdictPass, VerdictValidity, VerdictAgreement, VerdictTermination,
		VerdictRoundBound, VerdictNoProgress, VerdictError:
		return true
	}
	return strings.HasPrefix(v, lawPrefix) && len(v) > len(lawPrefix)
}

// Scenario is one declarative scenario: a named consensus run with its
// expected outcome. The zero value is not valid; build scenarios through
// Parse (or fill the fields and Validate).
type Scenario struct {
	// Name identifies the scenario: lowercase slash-separated path segments
	// ("crash/worst-case-n8-f2"). In a catalog directory the name must equal
	// the file's relative path without the .scenario extension.
	Name string
	// Info is a free-text one-line description.
	Info string
	// Protocol is "crw", "earlystop" or "floodset".
	Protocol string
	// N is the system size.
	N int
	// T is the resilience bound of the classic baselines; 0 defaults to N-1.
	T int
	// Proposals overrides the default proposal vector (100+i); nil uses the
	// default, otherwise the length must equal N.
	Proposals []int64
	// OrderAscending enables the ascending-commit-order ablation (CRW only):
	// the historical round-bound-violation counterexamples replay under it.
	OrderAscending bool
	// CommitAsData enables the commit-as-data ablation (CRW only): the
	// historical agreement-violation counterexamples replay under it.
	CommitAsData bool
	// Engines restricts the engines the scenario runs on (registry kinds,
	// sorted). Nil means every registered engine that supports the scenario
	// (a latency model restricts it to timed engines automatically).
	Engines []string
	// Latency is the latency model of the run (zero = none); a non-zero
	// latency restricts the scenario to timed engines.
	Latency Latency
	// Faults is the fault script in the fuzzer's replay grammar
	// ("p<proc>@r<round>:<mask>/<ctrl>", ":so:", ":ro:" events, ';'-joined;
	// "" is failure-free), stored in canonical event order.
	Faults string
	// Expect pins the outcome.
	Expect Expect
}

// field serialization order of String; also the closed set of known keys.
var fieldOrder = []string{
	"scenario", "info", "protocol", "n", "t", "proposals",
	"order", "commit-as-data", "engines", "latency", "faults",
	"expect", "rounds", "decide-round-max", "simtime", "simtime-max",
}

// String renders the scenario in canonical form: known keys in fixed order,
// defaults omitted, fault script in canonical event order. Parse(String())
// reproduces the value exactly, and String(Parse(String())) is a fixpoint.
func (s *Scenario) String() string {
	var b strings.Builder
	w := func(key, val string) {
		if val != "" {
			fmt.Fprintf(&b, "%s: %s\n", key, val)
		}
	}
	w("scenario", s.Name)
	w("info", s.Info)
	w("protocol", s.Protocol)
	w("n", strconv.Itoa(s.N))
	if s.T != 0 {
		w("t", strconv.Itoa(s.T))
	}
	if s.Proposals != nil {
		parts := make([]string, len(s.Proposals))
		for i, p := range s.Proposals {
			parts[i] = strconv.FormatInt(p, 10)
		}
		w("proposals", strings.Join(parts, ","))
	}
	if s.OrderAscending {
		w("order", "asc")
	}
	if s.CommitAsData {
		w("commit-as-data", "true")
	}
	w("engines", strings.Join(s.Engines, ","))
	w("latency", s.Latency.String())
	w("faults", s.Faults)
	w("expect", s.Expect.Verdict)
	if s.Expect.Rounds != 0 {
		w("rounds", strconv.Itoa(s.Expect.Rounds))
	}
	if s.Expect.DecideRoundMax != 0 {
		w("decide-round-max", strconv.Itoa(s.Expect.DecideRoundMax))
	}
	if s.Expect.SimTime != 0 {
		w("simtime", g(s.Expect.SimTime))
	}
	if s.Expect.SimTimeMax != 0 {
		w("simtime-max", g(s.Expect.SimTimeMax))
	}
	return b.String()
}

// Parse decodes a scenario file. The parser is strict: every line is blank,
// a '#' comment, or "key: value" with a known key; keys may not repeat;
// required keys (scenario, n, expect) must be present; every value is
// validated, including the fault script against the system size.
func Parse(text string) (*Scenario, error) {
	s := &Scenario{}
	seen := map[string]bool{}
	known := map[string]bool{}
	for _, k := range fieldOrder {
		known[k] = true
	}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fmt.Errorf("scenario: line %d: %q is not \"key: value\"", ln+1, line)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		if !known[key] {
			return nil, fmt.Errorf("scenario: line %d: unknown key %q", ln+1, key)
		}
		if seen[key] {
			return nil, fmt.Errorf("scenario: line %d: duplicate key %q", ln+1, key)
		}
		seen[key] = true
		if val == "" {
			return nil, fmt.Errorf("scenario: line %d: key %q has no value", ln+1, key)
		}
		if err := s.set(key, val); err != nil {
			return nil, fmt.Errorf("scenario: line %d: %w", ln+1, err)
		}
	}
	for _, req := range []string{"scenario", "n", "expect"} {
		if !seen[req] {
			return nil, fmt.Errorf("scenario: required key %q missing", req)
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// set assigns one parsed key.
func (s *Scenario) set(key, val string) error {
	atoi := func(what string) (int, error) {
		v, err := strconv.Atoi(val)
		if err != nil {
			return 0, fmt.Errorf("scenario: bad %s %q", what, val)
		}
		return v, nil
	}
	var err error
	switch key {
	case "scenario":
		s.Name = val
	case "info":
		s.Info = val
	case "protocol":
		s.Protocol = val
	case "n":
		s.N, err = atoi("n")
	case "t":
		s.T, err = atoi("t")
	case "proposals":
		for _, p := range strings.Split(val, ",") {
			v, perr := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
			if perr != nil {
				return fmt.Errorf("scenario: bad proposal %q", p)
			}
			s.Proposals = append(s.Proposals, v)
		}
	case "order":
		switch val {
		case "asc":
			s.OrderAscending = true
		case "desc":
			// The default; accepted for explicitness, omitted by String.
		default:
			return fmt.Errorf("scenario: bad order %q (want asc or desc)", val)
		}
	case "commit-as-data":
		switch val {
		case "true":
			s.CommitAsData = true
		case "false":
		default:
			return fmt.Errorf("scenario: bad commit-as-data %q (want true or false)", val)
		}
	case "engines":
		for _, e := range strings.Split(val, ",") {
			s.Engines = append(s.Engines, strings.TrimSpace(e))
		}
	case "latency":
		s.Latency, err = parseLatency(val)
	case "faults":
		s.Faults = val
	case "expect":
		s.Expect.Verdict = val
	case "rounds":
		s.Expect.Rounds, err = atoi("rounds")
	case "decide-round-max":
		s.Expect.DecideRoundMax, err = atoi("decide-round-max")
	case "simtime":
		s.Expect.SimTime, err = parseFinite(val, "simtime")
	case "simtime-max":
		s.Expect.SimTimeMax, err = parseFinite(val, "simtime-max")
	}
	return err
}

// parseFinite parses a float and rejects non-finite values (they could not
// round-trip through the canonical form).
func parseFinite(val, what string) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("scenario: bad %s %q", what, val)
	}
	return f, nil
}

// validName reports whether a scenario name is well-formed: non-empty
// lowercase path segments of [a-z0-9._-] joined by '/', no segment empty,
// leading with an alphanumeric, or equal to "." / "..".
func validName(name string) bool {
	if name == "" {
		return false
	}
	for _, seg := range strings.Split(name, "/") {
		if seg == "" || seg == "." || seg == ".." {
			return false
		}
		if c := seg[0]; (c < 'a' || c > 'z') && (c < '0' || c > '9') {
			return false
		}
		for _, c := range seg {
			switch {
			case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
			default:
				return false
			}
		}
	}
	return true
}

// Validate checks the scenario's internal consistency: the name shape, the
// protocol, size and bound ranges, ablation applicability, the engine list,
// the latency model, the expectation, and the fault script (parsed, canonical,
// and within the system size). Parse calls it; hand-built scenarios must too.
func (s *Scenario) Validate() error {
	if !validName(s.Name) {
		return fmt.Errorf("scenario: bad name %q (want lowercase [a-z0-9._-] path segments joined by '/')", s.Name)
	}
	switch s.Protocol {
	case "", "crw", "earlystop", "floodset":
	default:
		return fmt.Errorf("scenario %q: unknown protocol %q (want crw, earlystop or floodset)", s.Name, s.Protocol)
	}
	if s.N < 1 {
		return fmt.Errorf("scenario %q: n=%d must be at least 1", s.Name, s.N)
	}
	if s.T < 0 || s.T >= s.N && s.T != 0 {
		return fmt.Errorf("scenario %q: t=%d out of range (0 < t < n, or 0 for the default n-1)", s.Name, s.T)
	}
	if s.Proposals != nil && len(s.Proposals) != s.N {
		return fmt.Errorf("scenario %q: %d proposals for %d processes", s.Name, len(s.Proposals), s.N)
	}
	if (s.OrderAscending || s.CommitAsData) && s.Protocol != "" && s.Protocol != "crw" {
		return fmt.Errorf("scenario %q: the order/commit-as-data ablations apply to the crw protocol only", s.Name)
	}
	if len(s.Engines) > 0 {
		sorted := append([]string(nil), s.Engines...)
		sort.Strings(sorted)
		for i, e := range sorted {
			if e == "" || e == "all" {
				return fmt.Errorf("scenario %q: bad engine %q (omit the engines key to run on all engines)", s.Name, e)
			}
			if i > 0 && sorted[i-1] == e {
				return fmt.Errorf("scenario %q: duplicate engine %q", s.Name, e)
			}
		}
		if !sort.StringsAreSorted(s.Engines) {
			return fmt.Errorf("scenario %q: engines must be listed in sorted order (canonical form)", s.Name)
		}
	}
	if err := s.Latency.validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if !validVerdict(s.Expect.Verdict) {
		return fmt.Errorf("scenario %q: unknown expect %q (want pass, validity, agreement, termination, round-bound, no-progress, error or law:<name>)",
			s.Name, s.Expect.Verdict)
	}
	if s.Expect.Rounds < 0 || s.Expect.DecideRoundMax < 0 {
		return fmt.Errorf("scenario %q: negative round expectation", s.Name)
	}
	if s.Expect.SimTime < 0 || s.Expect.SimTimeMax < 0 {
		return fmt.Errorf("scenario %q: negative simtime expectation", s.Name)
	}
	if (s.Expect.SimTime > 0 || s.Expect.SimTimeMax > 0) && len(s.Engines) > 0 && !contains(s.Engines, "timed") {
		return fmt.Errorf("scenario %q: simtime expectations need a timed engine in the engines list", s.Name)
	}
	script, err := fuzz.Parse(s.Faults)
	if err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if canon := script.String(); canon != s.Faults {
		return fmt.Errorf("scenario %q: fault script is not in canonical event order (want %q)", s.Name, canon)
	}
	if err := script.ValidateFor(s.N); err != nil {
		return fmt.Errorf("scenario %q: fault script %w", s.Name, err)
	}
	return nil
}

// contains reports whether list holds v.
func contains(list []string, v string) bool {
	for _, e := range list {
		if e == v {
			return true
		}
	}
	return false
}

// Script returns the parsed fault script. The scenario must have passed
// Validate (Parse guarantees it); an unparsable script panics.
func (s *Scenario) Script() fuzz.Script {
	script, err := fuzz.Parse(s.Faults)
	if err != nil {
		panic(fmt.Sprintf("scenario %q: invalid script after validation: %v", s.Name, err))
	}
	return script
}

// ConsensusOnly reports whether the scenario is judged on the consensus
// properties alone, without the protocol's round bound: omission scripts and
// out-of-bound (timing-fault) latency models break the crash-model theorems
// the bounds come from, exactly as the fuzzer judges such campaigns.
func (s *Scenario) ConsensusOnly() bool {
	return s.Script().Omissions() > 0 || !s.Latency.WithinBound()
}

// Outcome is what one engine observed running a scenario, in the shape
// Check compares against the expectation.
type Outcome struct {
	// Verdict is the observed verdict class (Classify of the oracle error).
	Verdict string
	// Rounds is the number of rounds the engine executed.
	Rounds int
	// MaxDecideRound is the latest decision round (0 if nobody decided).
	MaxDecideRound int
	// SimTime is the simulated completion time; meaningful only when Timed.
	SimTime float64
	// Timed reports whether the engine prices executions (SimTime checks
	// apply only then; round engines run the same schedule unpriced).
	Timed bool
}

// Classify maps an oracle verdict error onto its verdict class: nil is
// VerdictPass, law violations are "law:<name>", the consensus violations map
// to their class, horizon exhaustion to VerdictNoProgress, anything else to
// VerdictError.
func Classify(err error) string {
	switch {
	case err == nil:
		return VerdictPass
	case laws.Of(err) != "":
		return lawPrefix + laws.Of(err)
	case errors.Is(err, check.ErrValidity):
		return VerdictValidity
	case errors.Is(err, check.ErrAgreement):
		return VerdictAgreement
	case errors.Is(err, check.ErrTermination):
		return VerdictTermination
	case errors.Is(err, check.ErrRoundBound):
		return VerdictRoundBound
	case errors.Is(err, sim.ErrNoProgress):
		return VerdictNoProgress
	default:
		return VerdictError
	}
}

// Check compares an observed outcome against the scenario's expectation. On
// divergence it returns an error naming the scenario, the file it came from,
// the engine, the diverging field, and the observed-vs-expected values — the
// deterministic diff CI prints when a catalog entry regresses.
func (s *Scenario) Check(file, engine string, o Outcome) error {
	diff := func(field string, got, want any) error {
		return fmt.Errorf("scenario %q (%s) on engine %s: %s %v, expected %v",
			s.Name, file, engine, field, got, want)
	}
	if o.Verdict != s.Expect.Verdict {
		return diff("verdict", o.Verdict, s.Expect.Verdict)
	}
	if s.Expect.Rounds > 0 && o.Rounds != s.Expect.Rounds {
		return diff("rounds", o.Rounds, s.Expect.Rounds)
	}
	if s.Expect.DecideRoundMax > 0 && o.MaxDecideRound > s.Expect.DecideRoundMax {
		return diff("decide round", o.MaxDecideRound, fmt.Sprintf("<= %d", s.Expect.DecideRoundMax))
	}
	if o.Timed {
		if want := s.Expect.SimTime; want > 0 {
			if rel := math.Abs(o.SimTime-want) / want; rel > 1e-9 {
				return diff("simtime", g(o.SimTime), g(want))
			}
		}
		if max := s.Expect.SimTimeMax; max > 0 && o.SimTime > max {
			return diff("simtime", g(o.SimTime), fmt.Sprintf("<= %s", g(max)))
		}
	}
	return nil
}
