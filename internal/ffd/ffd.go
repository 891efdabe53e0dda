// Package ffd implements the fast-failure-detector synchronous model of
// Aguilera, Le Lann and Toueg (DISC 2002) — reference [1] of the paper — and
// a rotating-coordinator uniform consensus algorithm for it that decides by
// time D + f·d, the bound the paper cites when positioning the extended
// synchronous model ("both our protocol and the fast failure detector-based
// protocol decide in a single round when there is no crash").
//
// Model. Processes communicate by messages with delay exactly D (an upper
// bound, taken as exact for the worst-case analysis). Each process has a
// read-only failure detector variable that is safe (contains only crashed
// processes) and d-live: if a process crashes at time τ, every alive process
// suspects it by τ+d, with d << D.
//
// Algorithm (a reconstruction from the cited result; the substitution is
// recorded in DESIGN.md). Process p takes over as coordinator when every
// lower-id process is suspected; on takeover it broadcasts (p, est) where
// est is the value of the highest-id coordinator it has heard from (its own
// proposal if none). A broadcast is instantaneous; a crash during it
// delivers an arbitrary subset. Because d < D, a receiver of (c, v) at time
// τ_send + D already suspects c if and only if c crashed during its
// broadcast: an unsuspected sender's broadcast is known to be complete, its
// value is locked, and the receiver decides v. The coordinator itself
// decides at broadcast completion — the exact analog of line 6 of the
// paper's Figure 1, with the fast failure detector playing the role the
// ordered COMMIT step plays in the extended model.
//
// Worst case: the first f coordinators crash at takeover; p_{k} takes over
// at (k-1)·d, so the correct coordinator p_{f+1} broadcasts at f·d and every
// process decides by f·d + D = D + f·d.
package ffd

import (
	"errors"
	"fmt"

	"repro/internal/des"
	"repro/internal/sim"
)

// Config parametrizes a run.
type Config struct {
	// N is the number of processes.
	N int
	// D is the message delay (also the classic round duration).
	D des.Time
	// Dd is the failure-detection latency d; must satisfy 0 < Dd < D.
	Dd des.Time
}

// Validate checks the model constraints.
func (c Config) Validate() error {
	if c.N < 1 {
		return errors.New("ffd: need at least one process")
	}
	if !(c.Dd > 0 && c.Dd < c.D) {
		return fmt.Errorf("ffd: need 0 < d < D, got d=%v D=%v", c.Dd, c.D)
	}
	return nil
}

// Schedule decides crash behaviour: when coordinator p broadcasts at time t,
// Crash reports whether it crashes during the broadcast and, if so, which of
// its n-1 messages (indexed by destination order p_1.. skipping itself)
// escape.
type Schedule interface {
	Crash(p sim.ProcID, t des.Time, dests []sim.ProcID) (bool, []bool)
}

// KillFirstF crashes the first F coordinators at their takeover broadcast.
// DeliverTo optionally selects destinations that still receive the dying
// broadcast (nil = nobody).
type KillFirstF struct {
	F         int
	DeliverTo map[sim.ProcID]bool
}

// Crash implements Schedule.
func (k KillFirstF) Crash(p sim.ProcID, _ des.Time, dests []sim.ProcID) (bool, []bool) {
	if int(p) > k.F {
		return false, nil
	}
	mask := make([]bool, len(dests))
	for i, to := range dests {
		mask[i] = k.DeliverTo[to]
	}
	return true, mask
}

// Result summarizes a run.
type Result struct {
	// Decisions maps every decided process to its value.
	Decisions map[sim.ProcID]sim.Value
	// DecideTime maps every decided process to its decision time.
	DecideTime map[sim.ProcID]des.Time
	// Crashed maps crashed processes to their crash times.
	Crashed map[sim.ProcID]des.Time
	// Broadcasts is the number of coordinator broadcasts performed.
	Broadcasts int
	// Messages is the number of point-to-point messages delivered.
	Messages int
}

// MaxDecideTime returns the latest decision time (0 if nobody decided).
func (r *Result) MaxDecideTime() des.Time {
	var max des.Time
	for _, t := range r.DecideTime {
		if t > max {
			max = t
		}
	}
	return max
}

// proc is the per-process state.
type proc struct {
	id        sim.ProcID
	est       sim.Value
	bestCoord sim.ProcID // highest coordinator heard from (0 = none)
	suspected map[sim.ProcID]bool
	crashed   bool
	decided   bool
	decision  sim.Value
	tookOver  bool
}

// Run executes one consensus instance and returns the result.
func Run(cfg Config, proposals []sim.Value, sched Schedule) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(proposals) != cfg.N {
		return nil, fmt.Errorf("ffd: %d proposals for %d processes", len(proposals), cfg.N)
	}
	s := &des.Sim{}
	res := &Result{
		Decisions:  map[sim.ProcID]sim.Value{},
		DecideTime: map[sim.ProcID]des.Time{},
		Crashed:    map[sim.ProcID]des.Time{},
	}
	procs := make([]*proc, cfg.N)
	for i := range procs {
		procs[i] = &proc{
			id:        sim.ProcID(i + 1),
			est:       proposals[i],
			suspected: map[sim.ProcID]bool{},
		}
	}

	decide := func(p *proc, v sim.Value) {
		if p.decided || p.crashed {
			return
		}
		p.decided = true
		p.decision = v
		res.Decisions[p.id] = v
		res.DecideTime[p.id] = s.Now()
	}

	var takeover func(p *proc)

	// suspect delivers the d-late crash notification of target to p and
	// triggers a takeover if p is now the lowest unsuspected process.
	suspect := func(p *proc, target sim.ProcID) {
		if p.crashed {
			return
		}
		p.suspected[target] = true
		takeover(p)
	}

	crash := func(p *proc) {
		p.crashed = true
		res.Crashed[p.id] = s.Now()
		for _, q := range procs {
			if q != p {
				q := q
				id := p.id
				s.After(cfg.Dd, func() { suspect(q, id) })
			}
		}
	}

	takeover = func(p *proc) {
		if p.crashed || p.tookOver {
			return
		}
		for j := sim.ProcID(1); j < p.id; j++ {
			if !p.suspected[j] {
				return
			}
		}
		p.tookOver = true
		res.Broadcasts++
		dests := make([]sim.ProcID, 0, cfg.N-1)
		for _, q := range procs {
			if q.id != p.id {
				dests = append(dests, q.id)
			}
		}
		crashNow, mask := sched.Crash(p.id, s.Now(), dests)
		from, est := p.id, p.est
		for i, to := range dests {
			if crashNow && (mask == nil || !mask[i]) {
				continue
			}
			q := procs[to-1]
			s.After(cfg.D, func() { receive(s, cfg, res, q, from, est, decide) })
		}
		if crashNow {
			crash(p)
			return
		}
		// Broadcast completed: the value is locked; the coordinator decides
		// immediately (the analog of Figure 1's line 6).
		decide(p, p.est)
	}

	// p_1 is the initial coordinator: it takes over at time 0.
	s.At(0, func() { takeover(procs[0]) })

	s.Run(des.Infinity)

	// Sanity: every surviving process must have decided.
	for _, p := range procs {
		if !p.crashed && !p.decided {
			return res, fmt.Errorf("ffd: p%d never decided", p.id)
		}
	}
	return res, nil
}

// receive processes the arrival of (from, est) at q.
func receive(s *des.Sim, cfg Config, res *Result, q *proc, from sim.ProcID, est sim.Value,
	decide func(*proc, sim.Value)) {
	if q.crashed {
		return
	}
	res.Messages++
	if from > q.bestCoord {
		q.bestCoord = from
		q.est = est
	}
	// d < D: if the sender crashed during its broadcast, q already suspects
	// it. An unsuspected sender completed its broadcast — value locked.
	if !q.suspected[from] {
		decide(q, est)
	}
}

// WorstCaseDecideTime returns the model's worst-case decision time D + f·d.
func WorstCaseDecideTime(cfg Config, f int) des.Time {
	return cfg.D + des.Time(f)*cfg.Dd
}
