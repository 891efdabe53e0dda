// Package fuzz turns the deterministic engine into a property-based tester:
// a seeded random walk of adversary.FromChooser, the same fault-choice tree
// the exhaustive explorer (internal/check) enumerates, drives executions
// through randomly sampled fault schedules — crash faults and
// send/receive-omission faults — at sizes the explorer cannot reach, every
// sampled fault is recorded into a compact replayable Script, each run is
// validated against the consensus oracles, and violating scripts are
// minimized by a delta-debugging shrinker while preserving the failure.
//
// The pipeline per seed is
//
//	generate (recording adversary) → validate (oracle) → replay-verify →
//	shrink (fewer events → later events → smaller fault footprints)
//
// and every stage is a deterministic function of the seed, which is what lets
// the campaign runner (agree.Fuzz) fan seeds across a worker pool and still
// produce bit-identical reports at any worker count.
package fuzz

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/adversary"
	"repro/internal/sim"
)

// EventKind distinguishes the fault classes a script event can carry.
type EventKind uint8

const (
	// EventCrash is a crash fault: the process dies during its send phase,
	// the selected data subset and control prefix escape. The zero value, so
	// pre-omission scripts keep their meaning.
	EventCrash EventKind = iota
	// EventSendOmit is a send-omission fault: the process stays alive but
	// the masked-out messages of this round's send plan silently vanish.
	EventSendOmit
	// EventRecvOmit is a receive-omission fault: the process stays alive but
	// every round-r message from the masked-out senders vanishes at its
	// interface.
	EventRecvOmit
)

// String returns the kind's script tag.
func (k EventKind) String() string {
	switch k {
	case EventSendOmit:
		return "so"
	case EventRecvOmit:
		return "ro"
	default:
		return "crash"
	}
}

// Event is one recorded fault, keyed by (Proc, Round, Kind).
//
// For EventCrash: the data messages selected by Data escape (positionally
// against the plan of that round, missing positions drop) and Ctrl control
// messages (a prefix of the ordered sequence) escape; the model's
// single-crash-point rule means a non-zero Ctrl implies every Data entry is
// true.
//
// For EventSendOmit: Data and CtrlMask are delivered-masks over the round's
// data messages and control sequence (missing positions are DELIVERED — an
// omission names what it drops, the mirror image of the crash convention).
//
// For EventRecvOmit: From is a delivered-mask over senders (index i =
// p_{i+1}; missing positions are delivered).
type Event struct {
	Kind  EventKind
	Proc  int
	Round int
	Data  []bool
	Ctrl  int
	// CtrlMask is the send-omission delivered-mask over the ordered control
	// sequence (EventSendOmit only; a crash cuts a prefix, an omission may
	// drop any subset).
	CtrlMask []bool
	// From is the receive-omission delivered-mask over senders
	// (EventRecvOmit only).
	From []bool
}

// String renders the event in the script format:
//
//	crash      p<proc>@r<round>:<data mask>/<ctrl prefix>   e.g. "p3@r1:101/0"
//	send-omit  p<proc>@r<round>:so:<data mask>/<ctrl mask>  e.g. "p3@r1:so:01/11"
//	recv-omit  p<proc>@r<round>:ro:<sender mask>            e.g. "p3@r1:ro:011"
func (e Event) String() string {
	var b strings.Builder
	b.Grow(e.textLen())
	e.write(&b)
	return b.String()
}

// textLen returns the length of the event's text.
func (e *Event) textLen() int {
	n := len("p@r:") + intLen(e.Proc) + intLen(e.Round)
	switch e.Kind {
	case EventSendOmit:
		return n + len("so:/") + len(e.Data) + len(e.CtrlMask)
	case EventRecvOmit:
		return n + len("ro:") + len(e.From)
	default:
		return n + len(e.Data) + len("/") + intLen(e.Ctrl)
	}
}

// write renders the event's text into b.
func (e *Event) write(b *strings.Builder) {
	b.WriteByte('p')
	writeInt(b, e.Proc)
	b.WriteString("@r")
	writeInt(b, e.Round)
	b.WriteByte(':')
	switch e.Kind {
	case EventSendOmit:
		b.WriteString("so:")
		writeMask(b, e.Data)
		b.WriteByte('/')
		writeMask(b, e.CtrlMask)
	case EventRecvOmit:
		b.WriteString("ro:")
		writeMask(b, e.From)
	default:
		writeMask(b, e.Data)
		b.WriteByte('/')
		writeInt(b, e.Ctrl)
	}
}

// writeInt renders v in decimal.
func writeInt(b *strings.Builder, v int) {
	var num [20]byte
	b.Write(strconv.AppendInt(num[:0], int64(v), 10))
}

// intLen returns the length of v in decimal.
func intLen(v int) int {
	var num [20]byte
	return len(strconv.AppendInt(num[:0], int64(v), 10))
}

// writeMask renders a boolean mask as '1'/'0' per position.
func writeMask(b *strings.Builder, mask []bool) {
	for _, d := range mask {
		if d {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
}

// Script is a replayable fault schedule: crash and omission events in
// canonical (round, process, kind) order — at most one crash per process,
// at most one event per (kind, process, round). The empty script is the
// failure-free schedule.
//
// A script is order-insensitive — replaying it is a pure function of
// (process, round, plan) — so it reproduces identically on every engine,
// including the lockstep runtime, whose processes run concurrently on
// P = min(n, GOMAXPROCS) goroutines.
type Script struct {
	Events []Event
}

// String renders the script as ';'-joined events ("" for the empty script),
// the format accepted by Parse, agree.ReplayFaults and agreefuzz -replay.
func (s Script) String() string {
	n := max(len(s.Events)-1, 0) // the separators
	for i := range s.Events {
		n += s.Events[i].textLen()
	}
	var b strings.Builder
	b.Grow(n)
	for i := range s.Events {
		if i > 0 {
			b.WriteByte(';')
		}
		s.Events[i].write(&b)
	}
	return b.String()
}

// Crashes returns the number of crash events.
func (s Script) Crashes() int {
	n := 0
	for _, e := range s.Events {
		if e.Kind == EventCrash {
			n++
		}
	}
	return n
}

// Omissions returns the number of omission events (send and receive).
func (s Script) Omissions() int { return len(s.Events) - s.Crashes() }

// OmissiveProcs returns the number of distinct processes with at least one
// omission event — the omission-fault budget a replay of the script spends.
func (s Script) OmissiveProcs() int {
	procs := map[int]bool{}
	for _, e := range s.Events {
		if e.Kind != EventCrash {
			procs[e.Proc] = true
		}
	}
	return len(procs)
}

// normalize sorts events into canonical (round, process, kind) order. A
// valid script holds at most one event per key, so the order is unique.
func (s *Script) normalize() {
	slices.SortFunc(s.Events, func(a, b Event) int {
		return cmp.Or(cmp.Compare(a.Round, b.Round), cmp.Compare(a.Proc, b.Proc), cmp.Compare(a.Kind, b.Kind))
	})
}

// validate rejects malformed scripts: events must name positive processes
// and rounds; a crash must keep Ctrl non-negative and respect the
// single-crash-point rule (Ctrl > 0 requires a fully-true mask); no process
// may crash twice; no (kind, process, round) may repeat; and a process's
// omission events must precede its crash round (from the crash round on it
// sends and receives nothing, so later omissions could never fire).
func (s Script) validate() error {
	crashRound := map[int]int{}
	for _, e := range s.Events {
		if e.Kind == EventCrash {
			if crashRound[e.Proc] != 0 {
				return fmt.Errorf("fuzz: p%d crashes twice", e.Proc)
			}
			crashRound[e.Proc] = e.Round
		}
	}
	type key struct {
		k    EventKind
		p, r int
	}
	seen := map[key]bool{}
	for _, e := range s.Events {
		if e.Proc < 1 {
			return fmt.Errorf("fuzz: event %s: process out of range", e)
		}
		if e.Round < 1 {
			return fmt.Errorf("fuzz: event %s: round out of range", e)
		}
		switch e.Kind {
		case EventCrash:
			if e.Ctrl < 0 {
				return fmt.Errorf("fuzz: event %s: negative control prefix", e)
			}
			if e.Ctrl > 0 {
				// A crash in the control step delivered all data; an empty
				// mask says no data message escaped.
				if len(e.Data) == 0 {
					return fmt.Errorf("fuzz: event %s: control prefix lets control messages escape but not every data message (a crash in the control step delivered all data)", e)
				}
				for _, d := range e.Data {
					if !d {
						return fmt.Errorf("fuzz: event %s: control prefix with partial data (crash point is unique)", e)
					}
				}
			}
		case EventSendOmit, EventRecvOmit:
			if cr := crashRound[e.Proc]; cr != 0 && e.Round >= cr {
				return fmt.Errorf("fuzz: event %s: omission at or after p%d's crash round %d", e, e.Proc, cr)
			}
			// An omission event must drop something: all-delivered masks are
			// a semantic no-op, yet they would mark the process omissive and
			// flip replay onto the omission-model oracle.
			if !dropsAny(e.Data) && !dropsAny(e.CtrlMask) && !dropsAny(e.From) {
				return fmt.Errorf("fuzz: event %s: omission drops nothing", e)
			}
		}
		k := key{e.Kind, e.Proc, e.Round}
		if seen[k] {
			return fmt.Errorf("fuzz: duplicate %s event for p%d@r%d", e.Kind, e.Proc, e.Round)
		}
		seen[k] = true
	}
	return nil
}

// ValidateFor checks the script against an n-process system: every event
// names an existing process, crash control prefixes and receive-omission
// masks fit, and a survivor remains. Its errors are phrases that read after
// the caller's own prefix, e.g. "agree: replay script " + err.
func (s Script) ValidateFor(n int) error {
	for _, e := range s.Events {
		if e.Proc > n {
			return fmt.Errorf("names nonexistent p%d (n=%d)", e.Proc, n)
		}
		if e.Ctrl > n-1 {
			return fmt.Errorf("control prefix %d of p%d out of range (0..%d)", e.Ctrl, e.Proc, n-1)
		}
		if len(e.From) > n {
			return fmt.Errorf("receive-omission mask of p%d names %d senders (n=%d)", e.Proc, len(e.From), n)
		}
	}
	if s.Crashes() >= n && n > 0 {
		return fmt.Errorf("crashes all %d processes; a run needs a survivor", n)
	}
	return nil
}

// dropsAny reports whether a delivered-mask suppresses at least one position.
func dropsAny(mask []bool) bool {
	for _, d := range mask {
		if !d {
			return true
		}
	}
	return false
}

// Parse decodes a script rendered by Script.String. The empty string is the
// empty (failure-free) script.
func Parse(text string) (Script, error) {
	var s Script
	text = strings.TrimSpace(text)
	if text == "" {
		return s, nil
	}
	for _, part := range strings.Split(text, ";") {
		e, err := parseEvent(strings.TrimSpace(part))
		if err != nil {
			return Script{}, err
		}
		s.Events = append(s.Events, e)
	}
	s.normalize()
	if err := s.validate(); err != nil {
		return Script{}, err
	}
	return s, nil
}

// parseEvent decodes one script element: "p<proc>@r<round>:<mask>/<ctrl>"
// (crash), "p<proc>@r<round>:so:<mask>/<mask>" (send omission) or
// "p<proc>@r<round>:ro:<mask>" (receive omission).
func parseEvent(text string) (Event, error) {
	bad := func() (Event, error) {
		return Event{}, fmt.Errorf("fuzz: bad script event %q (want p<proc>@r<round>:<mask>/<ctrl>, :so:<mask>/<mask> or :ro:<mask>)", text)
	}
	rest, ok := strings.CutPrefix(text, "p")
	if !ok {
		return bad()
	}
	procStr, rest, ok := strings.Cut(rest, "@r")
	if !ok {
		return bad()
	}
	roundStr, rest, ok := strings.Cut(rest, ":")
	if !ok {
		return bad()
	}
	proc, err := strconv.Atoi(procStr)
	if err != nil {
		return bad()
	}
	round, err := strconv.Atoi(roundStr)
	if err != nil {
		return bad()
	}
	e := Event{Proc: proc, Round: round}
	switch {
	case strings.HasPrefix(rest, "so:"):
		e.Kind = EventSendOmit
		dataStr, ctrlStr, ok := strings.Cut(strings.TrimPrefix(rest, "so:"), "/")
		if !ok {
			return bad()
		}
		if e.Data, err = parseMask(dataStr); err != nil {
			return bad()
		}
		if e.CtrlMask, err = parseMask(ctrlStr); err != nil {
			return bad()
		}
	case strings.HasPrefix(rest, "ro:"):
		e.Kind = EventRecvOmit
		if e.From, err = parseMask(strings.TrimPrefix(rest, "ro:")); err != nil {
			return bad()
		}
	default:
		maskStr, ctrlStr, ok := strings.Cut(rest, "/")
		if !ok {
			return bad()
		}
		if e.Ctrl, err = strconv.Atoi(ctrlStr); err != nil {
			return bad()
		}
		if e.Data, err = parseMask(maskStr); err != nil {
			return bad()
		}
	}
	return e, nil
}

// parseMask decodes a '1'/'0' mask (the empty mask is valid).
func parseMask(text string) ([]bool, error) {
	var mask []bool
	for _, c := range text {
		switch c {
		case '1':
			mask = append(mask, true)
		case '0':
			mask = append(mask, false)
		default:
			return nil, fmt.Errorf("fuzz: bad mask %q", text)
		}
	}
	return mask, nil
}

// replayer replays a Script as a sim.Adversary with omission support. Its
// answers are a pure function of (process, round, plan) — so the lockstep
// runtime's concurrent (mutex-serialized, but scheduling-ordered)
// consultation replays identically — and total over mutated scripts: crash
// masks are matched positionally against the concrete plan (missing
// positions drop, extras are ignored) with the control prefix clamped and
// forced to zero under partial data; omission masks are matched positionally
// with missing positions DELIVERED, so a mutated omission can only shrink
// toward the fault-free schedule.
//
// A mask that covers the plan is handed to the engine as a capped view of
// the event's own; only a shorter one is padded, into a region of the
// replayer's arena that no other fault of the run shares.
//
// Lookups scan the script's events from the end, so when a script carries
// two events for one key (only an unvalidated one can) the last one wins.
type replayer struct {
	events []Event
	masks  adversary.Masks // padded masks of the current run
}

// isOmission reports whether an event kind is an omission; every other kind
// replays as a crash.
func isOmission(k EventKind) bool { return k == EventSendOmit || k == EventRecvOmit }

// Adversary returns a replaying sim.Adversary for one run of the script.
// Crash-only scripts get a non-Omitter adversary, so their replay rides the
// engines' crash-model path (no omission scratch, no per-(process, round)
// Omits consults) exactly like the pre-omission code; scripts with omission
// events get the omitting variant.
//
// The adversary reads the script's events in place rather than copying
// them, so the script must not be mutated while a run consults it.
func (s Script) Adversary() sim.Adversary { return new(Replayer).Adversary(s) }

// Replayer is the storage of a script replay that a caller keeps across
// runs, so a replay allocates nothing of its own: the replaying adversary
// and the arena of its padded masks. The zero value is ready to use.
type Replayer struct{ r replayer }

// Adversary rearms the replayer for one run of s and returns it as the
// run's adversary, as Script.Adversary builds it. The adversary of the
// replayer's previous run is no longer valid.
func (p *Replayer) Adversary(s Script) sim.Adversary { return p.r.adversary(s) }

// adversary readies the replayer for one run of s and returns its face for
// the script.
func (r *replayer) adversary(s Script) sim.Adversary {
	r.events = s.Events
	r.masks.Reset()
	for _, e := range s.Events {
		if isOmission(e.Kind) {
			return omittingReplayer{r}
		}
	}
	return r
}

// fit returns mask fitted to k positions: a capped view when it covers
// them, otherwise a padded copy in the arena whose missing positions read
// pad. The result is never nil.
func (r *replayer) fit(mask []bool, k int, pad bool) []bool {
	if len(mask) >= k {
		if mask == nil {
			return []bool{}
		}
		return mask[:k:k]
	}
	out := r.masks.Carve(k)
	for i := copy(out, mask); i < k; i++ {
		out[i] = pad
	}
	return out
}

// crashOf returns p's crash event, nil when the script does not crash p.
func (r *replayer) crashOf(p int) *Event {
	for i := len(r.events) - 1; i >= 0; i-- {
		if e := &r.events[i]; e.Proc == p && !isOmission(e.Kind) {
			return e
		}
	}
	return nil
}

// omissionOf returns p's omission event of the given kind in round rd, nil
// when there is none.
func (r *replayer) omissionOf(kind EventKind, p, rd int) *Event {
	for i := len(r.events) - 1; i >= 0; i-- {
		if e := &r.events[i]; e.Kind == kind && e.Proc == p && e.Round == rd {
			return e
		}
	}
	return nil
}

// Crashes implements sim.Adversary.
func (r *replayer) Crashes(p sim.ProcID, rd sim.Round, plan sim.SendPlan) (bool, sim.CrashOutcome) {
	e := r.crashOf(int(p))
	if e == nil || e.Round != int(rd) {
		return false, sim.CrashOutcome{}
	}
	mask := r.fit(e.Data, len(plan.Data), false)
	ctrl := min(e.Ctrl, len(plan.Control))
	if dropsAny(mask) {
		ctrl = 0
	}
	return true, sim.CrashOutcome{DataDelivered: mask, CtrlPrefix: ctrl}
}

// omittingReplayer is the sim.Omitter face of a replayer, attached only
// when the script actually carries omission events.
type omittingReplayer struct{ *replayer }

// Omits implements sim.Omitter.
func (r omittingReplayer) Omits(p sim.ProcID, rd sim.Round, plan sim.SendPlan) sim.Omission {
	var om sim.Omission
	if e := r.omissionOf(EventSendOmit, int(p), int(rd)); e != nil {
		om.Data = r.fit(e.Data, len(plan.Data), true)
		om.Ctrl = r.fit(e.CtrlMask, len(plan.Control), true)
	}
	if e := r.omissionOf(EventRecvOmit, int(p), int(rd)); e != nil && len(e.From) > 0 {
		om.Recv = e.From[:len(e.From):len(e.From)]
	}
	return om
}
