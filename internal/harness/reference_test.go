package harness_test

import (
	"errors"
	"sort"

	"repro/internal/sim"
)

// refRun is the reference model: the synchronous round models executed
// straight from their definitions (Section 2 of the paper), with none of the
// engines' machinery — no kernel, no buffer reuse, no telemetry, no trace.
// Every engine registered in the harness must produce what it produces.
//
// A round is a send phase of every running process (alive and not halted),
// in id order, followed by their receive and computation phases:
//
//   - the data step sends the plan's data messages; a process that crashes
//     during the send phase lets through exactly the escaped subset;
//   - the control step follows without a break, in the prescribed order; a
//     crash lets through exactly a prefix of it;
//   - a process that does not crash may omit: its send masks suppress single
//     messages, and its receive mask of the round suppresses deliveries from
//     the masked senders;
//   - a message sent in round r is received in round r, by its destination's
//     receive phase when the destination is still running, and otherwise
//     never: the destination crashed or halted.
//
// Every transmitted message gets exactly one fate in the ledger. The
// adversary is consulted the way the engines promise: the crash decision of
// every running process in id order and, for a survivor, its omission
// decision right after.
func refRun(model sim.Model, horizon sim.Round, procs []sim.Process, adv sim.Adversary) (*sim.Result, error) {
	n := len(procs)
	omitter, _ := adv.(sim.Omitter)
	res := &sim.Result{Procs: make([]sim.Outcome, n)}
	dead := map[sim.ProcID]bool{}
	halted := map[sim.ProcID]bool{}
	running := func(id sim.ProcID) bool { return !dead[id] && !halted[id] }
	for r := sim.Round(1); r <= horizon; r++ {
		res.Rounds, res.Counters.Rounds = r, int(r)
		mail := map[sim.ProcID][]sim.Message{} // this round's transmissions, by destination
		recvMask := map[sim.ProcID][]bool{}
		send := func(m sim.Message) {
			if m.Kind == sim.Control {
				res.Counters.CtrlMsgs++
				res.Counters.CtrlBits++
			} else {
				res.Counters.DataMsgs++
				if m.Payload != nil {
					res.Counters.DataBits += m.Payload.Bits()
				}
			}
			mail[m.To] = append(mail[m.To], m)
		}

		for i, p := range procs {
			id := sim.ProcID(i + 1)
			if !running(id) {
				continue
			}
			plan := p.Send(r)
			if err := refCheckPlan(model, id, n, plan); err != nil {
				return res, err
			}
			crash, out := adv.Crashes(id, r, plan)
			var om sim.Omission
			if crash {
				if !refValidCrash(out, plan) {
					return res, sim.ErrBadOutcome
				}
				dead[id] = true
				res.Procs[i].CrashRound = r
			} else if omitter != nil {
				om = omitter.Omits(id, r, plan)
				if (om.Data != nil && len(om.Data) != len(plan.Data)) ||
					(om.Ctrl != nil && len(om.Ctrl) != len(plan.Control)) {
					return res, sim.ErrBadOmission
				}
				if om.Data != nil || om.Ctrl != nil || om.Recv != nil {
					res.Procs[i].OmissiveRounds++
				}
				recvMask[id] = om.Recv
			}
			// The data step.
			for j, o := range plan.Data {
				switch {
				case crash && !out.DataDelivered[j]:
					res.Counters.DroppedData++
				case om.Data != nil && !om.Data[j]:
					res.Counters.OmittedData++
				default:
					send(sim.Message{From: id, To: o.To, Round: r, Kind: sim.Data, Payload: o.Payload})
				}
			}
			// The control step.
			for j, to := range plan.Control {
				switch {
				case crash && j >= out.CtrlPrefix:
					res.Counters.DroppedCtrl++
				case om.Ctrl != nil && !om.Ctrl[j]:
					res.Counters.OmittedCtrl++
				default:
					send(sim.Message{From: id, To: to, Round: r, Kind: sim.Control})
				}
			}
		}

		for i, p := range procs {
			id := sim.ProcID(i + 1)
			if !running(id) {
				for _, m := range mail[id] {
					if dead[id] {
						refBook(&res.Ledger.DeadDestData, &res.Ledger.DeadDestCtrl, m)
					} else {
						refBook(&res.Ledger.HaltedDestData, &res.Ledger.HaltedDestCtrl, m)
					}
				}
				continue
			}
			var inbox []sim.Message
			for _, m := range mail[id] {
				if mask := recvMask[id]; int(m.From) <= len(mask) && !mask[m.From-1] {
					res.Counters.OmittedRecv++
					refBook(&res.Ledger.RecvOmitData, &res.Ledger.RecvOmitCtrl, m)
					continue
				}
				refBook(&res.Ledger.DeliveredData, &res.Ledger.DeliveredCtrl, m)
				inbox = append(inbox, m)
			}
			// The canonical inbox order: by sender, data before control.
			sort.SliceStable(inbox, func(a, b int) bool {
				if inbox[a].From != inbox[b].From {
					return inbox[a].From < inbox[b].From
				}
				return inbox[a].Kind < inbox[b].Kind
			})
			p.Receive(r, inbox)
			if v, ok := p.Decided(); ok && res.Procs[i].DecideRound == 0 {
				res.Procs[i].Value, res.Procs[i].DecideRound = v, r
			}
			if p.Halted() {
				if res.Procs[i].DecideRound == 0 {
					return res, sim.ErrHaltedWithoutDecision
				}
				halted[id] = true
			}
		}

		quiet := true
		for i := range procs {
			quiet = quiet && !running(sim.ProcID(i+1))
		}
		if quiet {
			return res, nil
		}
	}
	return res, sim.ErrNoProgress
}

// errRefPlan is the reference's verdict on a send plan the model forbids.
var errRefPlan = errors.New("reference: the plan breaks the model")

// refCheckPlan enforces the model on a send plan: no control step in the
// classic model, destinations that exist and are not the sender, at most one
// control message per channel and at most two messages in all per channel
// (footnote 3 of the paper: one data and one control message).
func refCheckPlan(model sim.Model, from sim.ProcID, n int, plan sim.SendPlan) error {
	if model == sim.ModelClassic && len(plan.Control) > 0 {
		return sim.ErrControlInClassic
	}
	perChannel := map[sim.ProcID]int{}
	control := map[sim.ProcID]bool{}
	bad := func(to sim.ProcID) bool { return to < 1 || int(to) > n || to == from }
	for _, o := range plan.Data {
		if bad(o.To) {
			return errRefPlan
		}
		perChannel[o.To]++
	}
	for _, to := range plan.Control {
		if bad(to) || control[to] {
			return errRefPlan
		}
		control[to] = true
		perChannel[to]++
	}
	for _, k := range perChannel {
		if k > 2 {
			return errRefPlan
		}
	}
	return nil
}

// refValidCrash reports whether a crash outcome describes one crash point of
// the plan's send phase: a subset of the data step and, only once the whole
// data step is out, a prefix of the control step.
func refValidCrash(out sim.CrashOutcome, plan sim.SendPlan) bool {
	if len(out.DataDelivered) != len(plan.Data) || out.CtrlPrefix < 0 || out.CtrlPrefix > len(plan.Control) {
		return false
	}
	for _, d := range out.DataDelivered {
		if !d && out.CtrlPrefix > 0 {
			return false
		}
	}
	return true
}

// refBook records one message's fate in the ledger counter of its kind.
func refBook(data, ctrl *int, m sim.Message) {
	if m.Kind == sim.Control {
		*ctrl++
	} else {
		*data++
	}
}
