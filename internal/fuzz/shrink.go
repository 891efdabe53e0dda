package fuzz

import (
	"repro/internal/adversary"
	"repro/internal/check"
)

// shrink minimizes a violating script by delta debugging: candidate
// simplifications are replayed, and a candidate is kept exactly when it
// still fails the oracle. Simplification passes run in preference order —
// fewer fault events (ddmin-style chunk removal), later fault rounds
// (bounded by maxRound), smaller fault footprints (shorter control prefixes
// and fewer escaped data messages for crashes; fewer omitted messages and
// blocked senders for omissions) — and repeat until a full cycle makes no
// progress or the replay budget is spent.
//
// serr is the violation of s itself (already verified by the caller).
// Every accepted mutation is monotone — the event count never grows, rounds
// never move earlier, fault footprints never grow — so the pass cycle
// terminates even without the budget.
//
// shrink returns the minimized script, the oracle violation it fails with,
// and any fatal replay error (which aborts the shrink and returns the best
// script found so far). Both are the runner's own, valid until its next
// seed: every candidate is the spare buffer, a deep copy of the current
// script mutated in place, and an adopted one swaps places with it. A
// verdict may read the result of the run it judged, which the next replay
// rewrites, so the current one — serr, then each adopted candidate's — is
// detached into the runner's result storage.
func (r *Runner) shrink(s Script, serr error, maxRound, budget int) (*Script, error, error) {
	r.cur.set(s)
	curErr := check.DetachInto(serr, &r.curRes)
	runs := 0
	var fatal error

	// next returns the spare buffer, set to a copy of the current script:
	// the candidate to mutate.
	next := func() *Script {
		r.spare.set(r.cur.Script)
		return &r.spare.Script
	}

	// try replays the candidate; it reports whether the candidate still
	// fails (and was adopted). A spent budget, a fatal error, or a
	// structurally invalid candidate (e.g. a delayed omission colliding with
	// another event) makes it a no-op.
	try := func() bool {
		if fatal != nil || runs >= budget {
			return false
		}
		if r.spare.validate() != nil {
			return false
		}
		runs++
		verr, ferr := r.replay(r.spare.Script)
		if ferr != nil {
			fatal = ferr
			return false
		}
		if verr == nil {
			return false
		}
		r.spare.normalize()
		r.cur, r.spare = r.spare, r.cur
		curErr = check.DetachInto(verr, &r.curRes)
		return true
	}

	done := func() bool { return fatal != nil || runs >= budget }

	for {
		progress := false

		// Pass 1 — fewer events: remove chunks of events, halving the chunk
		// size down to single events (ddmin).
		for chunk := len(r.cur.Events); chunk >= 1 && !done(); chunk /= 2 {
			for lo := 0; lo+chunk <= len(r.cur.Events) && !done(); {
				cand := next()
				cand.Events = append(cand.Events[:lo], cand.Events[lo+chunk:]...)
				if try() {
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
		r.keys = appendKeys(r.keys[:0], r.cur.Script)
		for _, k := range r.keys {
			for !done() {
				i := eventIndex(r.cur.Script, k)
				if i < 0 || r.cur.Events[i].Round >= maxRound {
					break
				}
				next().Events[i].Round++
				if !try() {
					break
				}
				k.round++
				progress = true
			}
		}

		// Pass 3 — smaller crash escape sets: shorten the control prefix
		// (toward zero first, then by halves and single steps), then drop
		// escaped data messages one by one once no control message escapes.
		r.keys = appendKeys(r.keys[:0], r.cur.Script)
		for _, k := range r.keys {
			if k.kind != EventCrash {
				continue
			}
			for !done() {
				i := eventIndex(r.cur.Script, k)
				if i < 0 || r.cur.Events[i].Ctrl == 0 {
					break
				}
				c := r.cur.Events[i].Ctrl
				accepted := false
				tried := map[int]bool{}
				for _, ctrl := range []int{0, c / 2, c - 1} {
					if ctrl >= c || tried[ctrl] {
						continue
					}
					tried[ctrl] = true
					next().Events[i].Ctrl = ctrl
					if try() {
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
				i := eventIndex(r.cur.Script, k)
				if i < 0 || r.cur.Events[i].Ctrl != 0 || bit >= len(r.cur.Events[i].Data) {
					break
				}
				if !r.cur.Events[i].Data[bit] {
					continue
				}
				next().Events[i].Data[bit] = false
				if try() {
					progress = true
				}
			}
		}

		// Pass 4 — smaller omission footprints: re-deliver omitted messages
		// and unblock senders one by one (flip mask bits toward true, the
		// fault-free direction). Flipping an event's last suppressed bit
		// would make it an all-delivered no-op, which validation rejects
		// inside try — removal of whole events is pass 1's job.
		r.keys = appendKeys(r.keys[:0], r.cur.Script)
		for _, k := range r.keys {
			if k.kind == EventCrash {
				continue
			}
			for _, field := range []func(*Event) []bool{
				func(e *Event) []bool { return e.Data },
				func(e *Event) []bool { return e.CtrlMask },
				func(e *Event) []bool { return e.From },
			} {
				for bit := 0; !done(); bit++ {
					i := eventIndex(r.cur.Script, k)
					if i < 0 || bit >= len(field(&r.cur.Events[i])) {
						break
					}
					if field(&r.cur.Events[i])[bit] {
						continue
					}
					field(&next().Events[i])[bit] = true
					if try() {
						progress = true
					}
				}
			}
		}

		if !progress || done() {
			return &r.cur.Script, curErr, fatal
		}
	}
}

// evKey identifies an event across renormalizations: scripts hold at most
// one event per (kind, process, round).
type evKey struct {
	kind        EventKind
	proc, round int
}

// appendKeys appends the identities of every event of s, in canonical
// script order, to keys.
func appendKeys(keys []evKey, s Script) []evKey {
	for _, e := range s.Events {
		keys = append(keys, evKey{e.Kind, e.Proc, e.Round})
	}
	return keys
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

// scriptBuf is a script on storage of its own: set rewrites its events and
// carves their masks from its arena, so a deep copy reuses the storage of
// the last.
type scriptBuf struct {
	Script
	masks adversary.Masks
}

// set makes b a deep copy of s, which must not be b's own script.
func (b *scriptBuf) set(s Script) {
	b.masks.Reset()
	b.Events = b.Events[:0]
	for _, e := range s.Events {
		e.Data, e.CtrlMask, e.From = keep(&b.masks, e.Data), keep(&b.masks, e.CtrlMask), keep(&b.masks, e.From)
		b.Events = append(b.Events, e)
	}
}
