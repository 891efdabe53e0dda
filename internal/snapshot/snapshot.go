// Package snapshot implements the Chandy–Lamport distributed snapshot
// algorithm (ACM TOCS 1985) — reference [6] of the paper and its canonical
// example of a synchronization message in fault-free distributed computing.
//
// The marker message plays exactly the role the paper ascribes to it: it
// tells the receiver to record its state (if it has not already) and it
// cleanly separates, on each FIFO channel, the messages sent before the
// sender's recording point from those sent after — a "synchronization point"
// from which consistent global information can be assembled. The paper's
// COMMIT message is the synchronous-agreement sibling of this idea, which is
// why this substrate is part of the reproduction.
//
// Run executes the protocol on the discrete-event clock of internal/des:
// reliable FIFO channels between every pair of nodes, each message delayed
// by a draw from a seeded internal/rng stream, so a seed fixes the
// interleaving and the run replays exactly. The protocol is generic over the
// application (any App); the package also ships the classic token-bank
// application whose conservation invariant ("no money is created or
// destroyed") is the textbook way to validate snapshot consistency.
package snapshot

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/des"
	"repro/internal/rng"
)

// NodeID identifies a node (1-based, like sim.ProcID).
type NodeID int

// App is the application layer living on one node.
type App interface {
	// Init may send initial application messages via send.
	Init(send func(to NodeID, payload any))
	// Handle processes one application payload; it may send messages.
	Handle(from NodeID, payload any, send func(to NodeID, payload any))
	// State returns a copy of the current local state for recording.
	State() any
}

// Marker is the snapshot synchronization message.
type Marker struct {
	// Origin identifies the node that sent the marker.
	Origin NodeID
}

// ChannelState is the recorded in-transit content of one channel.
type ChannelState struct {
	From     NodeID
	To       NodeID
	Payloads []any
}

// Collector is one global snapshot, assembled as the nodes finish recording.
type Collector struct {
	// States holds each node's recorded local state.
	States map[NodeID]any
	// Channels holds the recorded in-transit messages of every channel that
	// had any, sorted by (From, To).
	Channels []ChannelState
	// Done counts the nodes that finished recording.
	Done int
}

// Run takes one snapshot of the apps: node i+1 runs apps[i], and node 1
// initiates the snapshot right after its app's Init. Every node's Init runs
// at t=0 in id order. Each message then arrives after a delay drawn from the
// stream seeded by seed, but never before the previous message on its
// channel; equal arrival times keep send order by the simulator's FIFO
// tie-break, so every channel is FIFO. The run ends at quiescence. Run
// returns the snapshot and the number of messages sent, markers included;
// equal seeds give equal runs.
func Run(apps []App, seed int64) (*Collector, int) {
	n := len(apps)
	var (
		sim   des.Sim
		delay = rng.New(seed)
		last  = make([]des.Time, n*n) // latest arrival on channel (from, to), at (from-1)·n + to-1
		sent  int
		col   = &Collector{States: map[NodeID]any{}}
		nodes = make([]*node, n)
	)
	for i, app := range apps {
		nd := &node{app: app, col: col, id: NodeID(i + 1), n: n}
		nd.send = func(to NodeID, payload any) {
			// Both are protocol bugs in a fault-free substrate.
			if to == nd.id || to < 1 || int(to) > n {
				panic(fmt.Sprintf("snapshot: node %d sends to node %d", nd.id, to))
			}
			ch := int(nd.id-1)*n + int(to-1)
			last[ch] = max(sim.Now()+des.Time(delay.Float64()), last[ch])
			sent++
			sim.At(last[ch], func() { nodes[to-1].deliver(nd.id, payload) })
		}
		nodes[i] = nd
	}
	for _, nd := range nodes {
		nd.app.Init(nd.send)
		if nd.id == 1 {
			nd.record()
		}
	}
	sim.Run(des.Infinity)
	slices.SortFunc(col.Channels, func(a, b ChannelState) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	return col, sent
}

// node wraps an App with the Chandy–Lamport protocol.
type node struct {
	app  App
	col  *Collector
	id   NodeID
	n    int
	send func(to NodeID, payload any)

	recorded  bool
	recording map[NodeID]bool // channels still being recorded (by sender)
	chanState map[NodeID][]any
}

// record takes the local snapshot and emits markers on all outgoing
// channels; it starts recording every incoming channel.
func (nd *node) record() {
	if nd.recorded {
		return
	}
	nd.recorded = true
	nd.col.States[nd.id] = nd.app.State()
	nd.recording = map[NodeID]bool{}
	nd.chanState = map[NodeID][]any{}
	// The marker is sent atomically with the recording on every outgoing
	// channel — the synchronization point.
	for i := 1; i <= nd.n; i++ {
		if id := NodeID(i); id != nd.id {
			nd.recording[id] = true
			nd.send(id, Marker{Origin: nd.id})
		}
	}
	nd.maybeFinish()
}

// maybeFinish completes the node's participation once every incoming channel
// has delivered its marker.
func (nd *node) maybeFinish() {
	for _, still := range nd.recording {
		if still {
			return
		}
	}
	if nd.recording != nil {
		for from, msgs := range nd.chanState {
			nd.col.Channels = append(nd.col.Channels, ChannelState{From: from, To: nd.id, Payloads: msgs})
		}
		nd.recording = nil
		nd.col.Done++
	}
}

// deliver handles one message arriving from the given sender.
func (nd *node) deliver(from NodeID, payload any) {
	if _, ok := payload.(Marker); ok {
		// The first marker records now. The channel it arrived on is empty
		// in the snapshot (FIFO: everything before the marker was delivered
		// pre-recording).
		nd.record()
		nd.recording[from] = false
		nd.maybeFinish()
		return
	}
	// Application message: if it arrived on a channel still being recorded,
	// it was in transit at the snapshot point.
	if nd.recording[from] {
		nd.chanState[from] = append(nd.chanState[from], payload)
	}
	nd.app.Handle(from, payload, nd.send)
}
