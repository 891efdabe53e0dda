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
// Two flavours are provided: the lossy channel (RandomOmission) and
// chooser-driven (OmittingFromChooser, the omission tree the exhaustive
// explorer enumerates and the fuzzer samples). A scripted omission schedule,
// with or without crashes, is a fault script replayed by fuzz.Replayer.

import (
	"repro/internal/rng"
	"repro/internal/sim"
)

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

// allTrue carves a delivered-mask of k entries, every message delivered.
func allTrue(masks *Masks, k int) []bool {
	out := masks.Carve(k)
	for i := range out {
		out[i] = true
	}
	return out
}
