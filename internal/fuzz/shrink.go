package fuzz

import "repro/internal/check"

// Shrink minimizes a violating script by delta debugging: candidate
// simplifications are replayed through test, and a candidate is kept exactly
// when it still fails the oracle. Simplification passes run in preference
// order — fewer fault events (ddmin-style chunk removal), later fault rounds
// (bounded by maxRound), smaller fault footprints (shorter control prefixes
// and fewer escaped data messages for crashes; fewer omitted messages and
// blocked senders for omissions) — and repeat until a full cycle makes no
// progress or the replay budget is spent.
//
// test returns (oracle violation, fatal error): the candidate is kept when
// the violation is non-nil. serr is the violation of s itself (already
// verified by the caller). Every accepted mutation is monotone — the event
// count never grows, rounds never move earlier, fault footprints never grow —
// so the pass cycle terminates even without the budget.
//
// Shrink returns the minimized script, the oracle violation it fails with,
// and any fatal replay error (which aborts the shrink and returns the best
// script found so far). A verdict may read the result of the run it judged,
// which the next replay rewrites, so the kept verdict — serr, then each
// adopted candidate's — is detached from it (check.Detach).
func Shrink(s Script, serr error, maxRound, budget int, test func(Script) (error, error)) (Script, error, error) {
	cur := s.Clone()
	curErr := check.Detach(serr)
	runs := 0
	var fatal error

	// try replays a candidate; it reports whether the candidate still fails
	// (and was adopted). A spent budget, a fatal error, or a structurally
	// invalid candidate (e.g. a delayed omission colliding with another
	// event) makes it a no-op.
	try := func(cand Script) bool {
		if fatal != nil || runs >= budget {
			return false
		}
		if cand.validate() != nil {
			return false
		}
		runs++
		verr, ferr := test(cand)
		if ferr != nil {
			fatal = ferr
			return false
		}
		if verr == nil {
			return false
		}
		cand.normalize()
		cur, curErr = cand, check.Detach(verr)
		return true
	}

	done := func() bool { return fatal != nil || runs >= budget }

	for {
		progress := false

		// Pass 1 — fewer events: remove chunks of events, halving the chunk
		// size down to single events (ddmin).
		for chunk := len(cur.Events); chunk >= 1 && !done(); chunk /= 2 {
			for lo := 0; lo+chunk <= len(cur.Events) && !done(); {
				cand := cur.Clone()
				cand.Events = append(cand.Events[:lo], cand.Events[lo+chunk:]...)
				if try(cand) {
					progress = true
					// cur shrank; the window at lo now holds new events.
					continue
				}
				lo++
			}
		}

		// Pass 2 — later faults: greedily delay each remaining event round
		// by round up to maxRound. Events are addressed by their
		// (kind, process, round) identity, the key tracking the event as it
		// moves; a move that would collide with another event or cross the
		// process's crash round is rejected by validation inside try.
		for _, k := range eventKeys(cur) {
			for !done() {
				i := eventIndex(cur, k)
				if i < 0 || cur.Events[i].Round >= maxRound {
					break
				}
				cand := cur.Clone()
				cand.Events[i].Round++
				if !try(cand) {
					break
				}
				k.round++
				progress = true
			}
		}

		// Pass 3 — smaller crash escape sets: shorten the control prefix
		// (toward zero first, then by halves and single steps), then drop
		// escaped data messages one by one once no control message escapes.
		for _, k := range eventKeys(cur) {
			if k.kind != EventCrash {
				continue
			}
			for !done() {
				i := eventIndex(cur, k)
				if i < 0 || cur.Events[i].Ctrl == 0 {
					break
				}
				c := cur.Events[i].Ctrl
				accepted := false
				tried := map[int]bool{}
				for _, next := range []int{0, c / 2, c - 1} {
					if next >= c || tried[next] {
						continue
					}
					tried[next] = true
					cand := cur.Clone()
					cand.Events[i].Ctrl = next
					if try(cand) {
						accepted = true
						progress = true
						break
					}
					if done() {
						break
					}
				}
				if !accepted {
					break
				}
			}
			for bit := 0; !done(); bit++ {
				i := eventIndex(cur, k)
				if i < 0 || cur.Events[i].Ctrl != 0 || bit >= len(cur.Events[i].Data) {
					break
				}
				if !cur.Events[i].Data[bit] {
					continue
				}
				cand := cur.Clone()
				cand.Events[i].Data[bit] = false
				if try(cand) {
					progress = true
				}
			}
		}

		// Pass 4 — smaller omission footprints: re-deliver omitted messages
		// and unblock senders one by one (flip mask bits toward true, the
		// fault-free direction). Flipping an event's last suppressed bit
		// would make it an all-delivered no-op, which validation rejects
		// inside try — removal of whole events is pass 1's job.
		for _, k := range eventKeys(cur) {
			if k.kind == EventCrash {
				continue
			}
			for _, field := range []func(*Event) []bool{
				func(e *Event) []bool { return e.Data },
				func(e *Event) []bool { return e.CtrlMask },
				func(e *Event) []bool { return e.From },
			} {
				for bit := 0; !done(); bit++ {
					i := eventIndex(cur, k)
					if i < 0 || bit >= len(field(&cur.Events[i])) {
						break
					}
					if field(&cur.Events[i])[bit] {
						continue
					}
					cand := cur.Clone()
					field(&cand.Events[i])[bit] = true
					if try(cand) {
						progress = true
					}
				}
			}
		}

		if !progress || done() {
			return cur, curErr, fatal
		}
	}
}

// evKey identifies an event across renormalizations: scripts hold at most
// one event per (kind, process, round).
type evKey struct {
	kind        EventKind
	proc, round int
}

// eventKeys returns the identities of every event, in canonical script order.
func eventKeys(s Script) []evKey {
	out := make([]evKey, len(s.Events))
	for i, e := range s.Events {
		out[i] = evKey{e.Kind, e.Proc, e.Round}
	}
	return out
}

// eventIndex returns the index of the event with the given identity, or -1
// if it was removed.
func eventIndex(s Script, k evKey) int {
	for i, e := range s.Events {
		if e.Kind == k.kind && e.Proc == k.proc && e.Round == k.round {
			return i
		}
	}
	return -1
}
