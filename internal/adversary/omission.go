package adversary

// Omission adversaries: the send/receive-omission fault model, one notch
// below crash faults in severity and the canonical next fault class for
// synchronous consensus. An omission-faulty process stays alive and keeps
// executing the protocol — individual messages it sends or receives simply
// vanish. The paper's algorithm assumes reliable channels and crash faults
// only, so omission adversaries are how the repository demonstrates that
// assumption is load-bearing (and how far the guarantees stretch before it
// breaks).
//
// Three flavours are provided: scripted (OmissionScript), the lossy channel
// (RandomOmission) and chooser-driven (OmittingFromChooser, the omission
// tree the exhaustive explorer enumerates and the fuzzer samples).
// Combined composes any crash adversary with any omitter into a mixed
// crash+omission scenario.

import (
	"repro/internal/rng"
	"repro/internal/sim"
)

// OmissionPlan describes the omission faults of one process in one round.
// The zero plan (beyond Round) omits nothing.
type OmissionPlan struct {
	// Round is the round the omissions apply to.
	Round sim.Round
	// SendData, if non-nil, selects which data messages of the round's send
	// plan are transmitted ('true' = transmitted); it is matched positionally
	// and missing positions are transmitted.
	SendData []bool
	// SendCtrl, if non-nil, selects which control messages are transmitted,
	// positionally against the ordered control sequence. Unlike a crash —
	// which cuts the sequence at a prefix — an omission may drop any subset.
	SendCtrl []bool
	// DropAllSend suppresses the entire send plan (both steps), overriding
	// SendData/SendCtrl.
	DropAllSend bool
	// Recv, if non-nil, selects which senders' messages reach the process
	// this round (index i = p_{i+1}, 'true' = delivered); missing positions
	// are delivered.
	Recv []bool
	// DropAllRecv suppresses every delivery to the process this round,
	// overriding Recv.
	DropAllRecv bool
}

// omission materializes the plan against a concrete send plan, for a system
// of n processes, carving its masks from the run's arena.
func (op OmissionPlan) omission(plan sim.SendPlan, n int, masks *Masks) sim.Omission {
	var om sim.Omission
	if op.DropAllSend {
		om.Data = carveMask(masks, len(plan.Data))
		om.Ctrl = carveMask(masks, len(plan.Control))
	} else {
		if op.SendData != nil {
			om.Data = delivered(masks, op.SendData, len(plan.Data))
		}
		if op.SendCtrl != nil {
			om.Ctrl = delivered(masks, op.SendCtrl, len(plan.Control))
		}
	}
	switch {
	case op.DropAllRecv:
		om.Recv = carveMask(masks, n)
	case len(op.Recv) > 0:
		om.Recv = masks.Carve(len(op.Recv))
		copy(om.Recv, op.Recv)
	}
	return om
}

// carveMask carves a zeroed mask of k entries, every message dropped. It is
// never nil, even for k = 0: a nil mask would mean "nothing omitted".
func carveMask(masks *Masks, k int) []bool {
	if mask := masks.Carve(k); mask != nil {
		return mask
	}
	return []bool{}
}

// delivered carves a delivered-mask of k entries from a positional one, the
// positions it misses delivered: the padding rule fuzz-script replay applies
// too.
func delivered(masks *Masks, mask []bool, k int) []bool {
	out := carveMask(masks, k)
	for i := range out {
		out[i] = i >= len(mask) || mask[i]
	}
	return out
}

// OmissionScript injects omission faults according to explicit per-process
// plans; it never crashes anybody. A process may have plans in several rounds
// (omissions, unlike crashes, are repeatable); the first plan matching the
// round applies. As a pure function of (process, round, plan) it is
// order-insensitive and replays identically on every engine. Its masks are
// regions of an arena of its own: Reset rewinds it before the script
// serves another run.
type OmissionScript struct {
	// N is the number of processes (needed to materialize DropAllRecv).
	N int
	// Plans maps each omission-faulty process to its per-round plans.
	Plans map[sim.ProcID][]OmissionPlan

	masks Masks
}

// NewOmissionScript builds a scripted omission adversary for an n-process
// system.
func NewOmissionScript(n int, plans map[sim.ProcID][]OmissionPlan) *OmissionScript {
	return &OmissionScript{N: n, Plans: plans}
}

// Reset readies the script for another run: it rewinds the mask arena,
// keeping its storage.
func (s *OmissionScript) Reset() { s.masks.Reset() }

// Crashes implements sim.Adversary: a pure omission script crashes nobody.
func (s *OmissionScript) Crashes(sim.ProcID, sim.Round, sim.SendPlan) (bool, sim.CrashOutcome) {
	return false, sim.CrashOutcome{}
}

// Omits implements sim.Omitter.
func (s *OmissionScript) Omits(p sim.ProcID, r sim.Round, plan sim.SendPlan) sim.Omission {
	for _, op := range s.Plans[p] {
		if op.Round == r {
			return op.omission(plan, s.N, &s.masks)
		}
	}
	return sim.Omission{}
}

// RandomOmission injects omission faults at random: once a process commits an
// omission it counts against the MaxFaulty budget of distinct omission-faulty
// processes; each of its outgoing messages is omitted with probability
// SendProb and each sender's deliveries to it are omitted with probability
// RecvProb, independently per round. With MaxFaulty = n and RecvProb = 0 this
// is exactly the classic lossy-channel ablation (every message independently
// lost with SendProb), which is how E14 demonstrates the model's
// reliable-channel precondition.
//
// RandomOmission is not a walk of OmittingFromChooser's tree, because it is
// a different distribution: every message is lost independently and an
// all-delivered draw is no fault at all, whereas the tree gates each event
// and then draws a non-empty subset. Expressing the lossy channel on the
// tree would take duplicate explorer leaves or a chooser that knows the
// subset width.
//
// RandomOmission draws from the seed's SplitMix64 stream (internal/rng) and
// is deterministic for a fixed seed on the deterministic engine; like every
// stateful randomized adversary it is order-sensitive and must not be used
// for cross-engine comparison.
type RandomOmission struct {
	rng       rng.Stream
	SendProb  float64
	RecvProb  float64
	MaxFaulty int
	N         int

	faulty map[sim.ProcID]bool
	masks  Masks // the run's delivery masks, rewound by Reset
}

// NewRandomOmission builds a seeded random omission adversary for an
// n-process system: at most maxFaulty distinct processes turn omission
// faulty, each dropping sent messages with probability sendProb and inbound
// senders with probability recvProb.
func NewRandomOmission(seed int64, sendProb, recvProb float64, maxFaulty, n int) *RandomOmission {
	a := new(RandomOmission)
	a.Reset(seed, sendProb, recvProb, maxFaulty, n)
	return a
}

// Reset rearms the adversary as NewRandomOmission would build it, keeping
// the storage of its faulty set and its mask arena.
func (a *RandomOmission) Reset(seed int64, sendProb, recvProb float64, maxFaulty, n int) {
	a.rng, a.SendProb, a.RecvProb, a.MaxFaulty, a.N = rng.New(seed), sendProb, recvProb, maxFaulty, n
	if a.faulty == nil {
		a.faulty = make(map[sim.ProcID]bool)
	}
	clear(a.faulty)
	a.masks.Reset()
}

// Crashes implements sim.Adversary: a pure omission adversary crashes nobody.
func (a *RandomOmission) Crashes(sim.ProcID, sim.Round, sim.SendPlan) (bool, sim.CrashOutcome) {
	return false, sim.CrashOutcome{}
}

// Omits implements sim.Omitter.
func (a *RandomOmission) Omits(p sim.ProcID, r sim.Round, plan sim.SendPlan) sim.Omission {
	if !a.faulty[p] && len(a.faulty) >= a.MaxFaulty {
		return sim.Omission{}
	}
	var om sim.Omission
	dropped := false
	for i := range plan.Data {
		if a.rng.Float64() < a.SendProb {
			if om.Data == nil {
				om.Data = allTrue(&a.masks, len(plan.Data))
			}
			om.Data[i] = false
			dropped = true
		}
	}
	for i := range plan.Control {
		if a.rng.Float64() < a.SendProb {
			if om.Ctrl == nil {
				om.Ctrl = allTrue(&a.masks, len(plan.Control))
			}
			om.Ctrl[i] = false
			dropped = true
		}
	}
	if a.RecvProb > 0 {
		for q := 1; q <= a.N; q++ {
			if sim.ProcID(q) == p {
				continue
			}
			if a.rng.Float64() < a.RecvProb {
				if om.Recv == nil {
					om.Recv = allTrue(&a.masks, a.N)
				}
				om.Recv[q-1] = false
				dropped = true
			}
		}
	}
	if !dropped {
		return sim.Omission{}
	}
	a.faulty[p] = true
	return om
}

// Faulty returns how many distinct processes have committed omission faults.

// allTrue carves a delivered-mask of k entries, every message delivered.
func allTrue(masks *Masks, k int) []bool {
	out := masks.Carve(k)
	for i := range out {
		out[i] = true
	}
	return out
}

// Combined is the mixed crash+omission adversary: it crashes per Crash and
// omits per Omit. The engines consult Omit only for processes Crash spared
// that round. It is order-insensitive exactly when both parts are.
type Combined struct {
	Crash sim.Adversary
	Omit  sim.Omitter
}

// Crashes implements sim.Adversary.
func (c *Combined) Crashes(p sim.ProcID, r sim.Round, plan sim.SendPlan) (bool, sim.CrashOutcome) {
	return c.Crash.Crashes(p, r, plan)
}

// Omits implements sim.Omitter.
func (c *Combined) Omits(p sim.ProcID, r sim.Round, plan sim.SendPlan) sim.Omission {
	return c.Omit.Omits(p, r, plan)
}
