package snapshot_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/snapshot"
)

// bankApps builds n bank nodes with a busy transfer plan: every node sends
// balance/2n tokens to every other node, and each transfer travels hops
// further ring hops. It returns the apps and the initial token total.
func bankApps(n int, balance int64, hops int) ([]snapshot.App, int64) {
	apps := make([]snapshot.App, n)
	for i := 1; i <= n; i++ {
		var plan []snapshot.PlannedTransfer
		for j := 1; j <= n; j++ {
			if j != i {
				plan = append(plan, snapshot.PlannedTransfer{
					To: snapshot.NodeID(j), Amount: balance / int64(2*n), Hops: hops,
				})
			}
		}
		apps[i-1] = snapshot.NewBank(snapshot.NodeID(i), n, balance, plan)
	}
	return apps, int64(n) * balance
}

// finalBalances sums the banks' balances after a run. It equals the initial
// total only if no transfer is still in flight, i.e. the run reached
// quiescence.
func finalBalances(apps []snapshot.App) int64 {
	var sum int64
	for _, a := range apps {
		sum += a.(*snapshot.Bank).Balance
	}
	return sum
}

func TestSnapshotConservesTokens(t *testing.T) {
	// The fundamental consistency law: for every seed, size and traffic
	// volume, recorded balances plus recorded in-channel tokens equal the
	// initial total, and the run ends with every transfer delivered.
	prop := func(seed int64, nRaw, hopsRaw uint8) bool {
		n, hops := 1+int(nRaw%8), int(hopsRaw%12)
		apps, total := bankApps(n, 1000, hops)
		col, _ := snapshot.Run(apps, seed)
		got := snapshot.TotalBalances(col.States) + snapshot.TotalInChannels(col.Channels)
		if col.Done != n || got != total || finalBalances(apps) != total {
			t.Logf("seed %d n=%d hops=%d: done %d, snapshot total %d, final %d, want %d",
				seed, n, hops, col.Done, got, finalBalances(apps), total)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSeedFixesTheCut(t *testing.T) {
	// A seed replays its run exactly, and the seeded delays really vary the
	// interleaving: across seeds the recorded cuts differ.
	const n = 5
	cut := func(seed int64) string {
		apps, _ := bankApps(n, 1000, 6)
		col, sent := snapshot.Run(apps, seed)
		return fmt.Sprint(col.States, col.Channels, sent)
	}
	distinct := map[string]bool{}
	for seed := int64(1); seed <= 100; seed++ {
		c := cut(seed)
		if again := cut(seed); again != c {
			t.Fatalf("seed %d: rerun gives %s, first run %s", seed, again, c)
		}
		distinct[c] = true
	}
	if len(distinct) < 2 {
		t.Errorf("seeds 1..100 at n=%d recorded %d distinct cut(s), want several", n, len(distinct))
	}
}

// seqMsg is message seq on its channel; the receiver replies while hops
// last, so later messages on a channel are sent at later times.
type seqMsg struct{ seq, hops int }

// fifoApp sends numbered messages on every outgoing channel and counts
// deliveries that arrive out of send order.
type fifoApp struct {
	id         snapshot.NodeID
	n          int
	next, want map[snapshot.NodeID]int // next seq to send (by destination), to receive (by sender)
	sent, got  int
	reordered  int
}

func (a *fifoApp) sendTo(to snapshot.NodeID, hops int, send func(snapshot.NodeID, any)) {
	send(to, seqMsg{seq: a.next[to], hops: hops})
	a.next[to]++
	a.sent++
}

func (a *fifoApp) Init(send func(snapshot.NodeID, any)) {
	for burst := 0; burst < 4; burst++ {
		for j := 1; j <= a.n; j++ {
			if to := snapshot.NodeID(j); to != a.id {
				a.sendTo(to, 3, send)
			}
		}
	}
}

func (a *fifoApp) Handle(from snapshot.NodeID, payload any, send func(snapshot.NodeID, any)) {
	m := payload.(seqMsg)
	if m.seq != a.want[from] {
		a.reordered++
	}
	a.want[from]++
	a.got++
	if m.hops > 0 {
		a.sendTo(from, m.hops-1, send)
	}
}

func (a *fifoApp) State() any { return a.got }

func TestFIFOPerChannel(t *testing.T) {
	// For every seed, each channel delivers its messages in send order and
	// every message is delivered.
	prop := func(seed int64, nRaw uint8) bool {
		n := 2 + int(nRaw%5)
		apps := make([]snapshot.App, n)
		for i := range apps {
			apps[i] = &fifoApp{id: snapshot.NodeID(i + 1), n: n,
				next: map[snapshot.NodeID]int{}, want: map[snapshot.NodeID]int{}}
		}
		snapshot.Run(apps, seed)
		sent, got := 0, 0
		for _, a := range apps {
			f := a.(*fifoApp)
			if f.reordered != 0 {
				t.Logf("seed %d n=%d: node %d saw %d out-of-order deliveries", seed, n, f.id, f.reordered)
				return false
			}
			sent, got = sent+f.sent, got+f.got
		}
		return sent == got
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// pingPong bounces a counter back and forth until it reaches zero.
type pingPong struct {
	starts  bool
	peer    snapshot.NodeID
	initial int
	got     []int
}

func (p *pingPong) Init(send func(snapshot.NodeID, any)) {
	if p.starts {
		send(p.peer, p.initial)
	}
}

func (p *pingPong) Handle(from snapshot.NodeID, payload any, send func(snapshot.NodeID, any)) {
	v := payload.(int)
	p.got = append(p.got, v)
	if v > 0 {
		send(from, v-1)
	}
}

func (p *pingPong) State() any { return len(p.got) }

func TestPingPongRunsToQuiescence(t *testing.T) {
	a := &pingPong{starts: true, peer: 2, initial: 10}
	b := &pingPong{}
	_, sent := snapshot.Run([]snapshot.App{a, b}, 7)
	// b received 10, 8, 6, 4, 2, 0; a received 9, 7, 5, 3, 1.
	if len(b.got) != 6 || len(a.got) != 5 {
		t.Fatalf("a got %v, b got %v", a.got, b.got)
	}
	if want := 11 + 2; sent != want {
		t.Errorf("messages sent = %d, want %d (11 counters, 2 markers)", sent, want)
	}
}

// broadcaster sends one message to every other node when it starts, and
// counts the application messages it receives by sender.
type broadcaster struct {
	id, n  int
	starts bool
	got    map[snapshot.NodeID]int
}

func (b *broadcaster) Init(send func(snapshot.NodeID, any)) {
	if !b.starts {
		return
	}
	for j := 1; j <= b.n; j++ {
		if j != b.id {
			send(snapshot.NodeID(j), "hello")
		}
	}
}

func (b *broadcaster) Handle(from snapshot.NodeID, _ any, _ func(snapshot.NodeID, any)) {
	b.got[from]++
}

func (b *broadcaster) State() any { return len(b.got) }

// broadcasters builds n broadcasters, of which node 1 starts a broadcast if
// broadcast is set.
func broadcasters(n int, broadcast bool) []*broadcaster {
	bs := make([]*broadcaster, n)
	for i := range bs {
		bs[i] = &broadcaster{id: i + 1, n: n, starts: broadcast && i == 0, got: map[snapshot.NodeID]int{}}
	}
	return bs
}

func runBroadcasters(bs []*broadcaster, seed int64) (*snapshot.Collector, int) {
	apps := make([]snapshot.App, len(bs))
	for i, b := range bs {
		apps[i] = b
	}
	return snapshot.Run(apps, seed)
}

func TestBroadcastReachesEveryone(t *testing.T) {
	// A message sent to every other node reaches each of them exactly once.
	const n = 6
	bs := broadcasters(n, true)
	_, sent := runBroadcasters(bs, 3)
	for _, b := range bs[1:] {
		if len(b.got) != 1 || b.got[1] != 1 {
			t.Errorf("node %d received %v, want one copy from node 1", b.id, b.got)
		}
	}
	if len(bs[0].got) != 0 {
		t.Errorf("the sender received %v, want nothing", bs[0].got)
	}
	if want := (n - 1) + n*(n-1); sent != want {
		t.Errorf("messages sent = %d, want %d (%d broadcast, %d markers)", sent, want, n-1, n*(n-1))
	}
}

func TestQuiescenceWithNoTraffic(t *testing.T) {
	// With no application traffic the run returns with every node complete
	// and no application message delivered; only the markers travel.
	bs := broadcasters(2, false)
	col, sent := runBroadcasters(bs, 1)
	if col.Done != 2 {
		t.Fatalf("snapshot incomplete (%d done)", col.Done)
	}
	for _, b := range bs {
		if len(b.got) != 0 {
			t.Errorf("node %d received %v, want nothing", b.id, b.got)
		}
	}
	if sent != 2 {
		t.Errorf("messages sent = %d, want 2 (markers only)", sent)
	}
}

func TestSnapshotRecordsAllNodes(t *testing.T) {
	const n = 4
	apps, _ := bankApps(n, 400, 3)
	col, _ := snapshot.Run(apps, 1)
	if len(col.States) != n {
		t.Fatalf("recorded %d node states, want %d", len(col.States), n)
	}
	for i := 1; i <= n; i++ {
		if _, ok := col.States[snapshot.NodeID(i)]; !ok {
			t.Errorf("node %d state missing", i)
		}
	}
	// Every channel state belongs to a real directed channel, no duplicates.
	seen := map[[2]snapshot.NodeID]bool{}
	for _, cs := range col.Channels {
		key := [2]snapshot.NodeID{cs.From, cs.To}
		if seen[key] {
			t.Errorf("duplicate channel state %v", key)
		}
		seen[key] = true
		if cs.From == cs.To || cs.From < 1 || cs.From > n || cs.To < 1 || cs.To > n {
			t.Errorf("recorded channel %v is not a channel of the system", key)
		}
	}
}

func TestSnapshotSingleNode(t *testing.T) {
	col, sent := snapshot.Run([]snapshot.App{snapshot.NewBank(1, 1, 42, nil)}, 1)
	if col.Done != 1 {
		t.Fatal("single-node snapshot incomplete")
	}
	if got := snapshot.TotalBalances(col.States); got != 42 {
		t.Errorf("recorded balance = %d, want 42", got)
	}
	if sent != 0 {
		t.Errorf("messages sent = %d, want 0", sent)
	}
}

func TestSnapshotIdleSystem(t *testing.T) {
	// With no application traffic the snapshot still completes and records
	// the initial balances with empty channels; only markers travel.
	const n = 3
	apps := make([]snapshot.App, n)
	for i := range apps {
		apps[i] = snapshot.NewBank(snapshot.NodeID(i+1), n, 100, nil)
	}
	col, sent := snapshot.Run(apps, 1)
	if col.Done != n {
		t.Fatal("snapshot incomplete")
	}
	if got := snapshot.TotalBalances(col.States); got != 300 {
		t.Errorf("total = %d, want 300", got)
	}
	if got := snapshot.TotalInChannels(col.Channels); got != 0 || len(col.Channels) != 0 {
		t.Errorf("in-channel tokens = %d over %d channels, want none", got, len(col.Channels))
	}
	if want := n * (n - 1); sent != want {
		t.Errorf("messages sent = %d, want %d (markers only)", sent, want)
	}
}

func TestMarkerCount(t *testing.T) {
	// Chandy–Lamport sends exactly one marker per directed channel: n(n-1)
	// marker messages in a complete graph. With every node complete (a
	// marker received from each other node) that count leaves exactly one
	// per channel.
	for n := 1; n <= 6; n++ {
		apps, _ := bankApps(n, 0, 0) // no app traffic
		col, sent := snapshot.Run(apps, int64(n))
		if col.Done != n {
			t.Fatalf("n=%d: snapshot incomplete (%d done)", n, col.Done)
		}
		if want := n * (n - 1); sent != want {
			t.Errorf("n=%d: messages sent = %d, want %d (markers only)", n, sent, want)
		}
	}
}

func TestRunNoNodes(t *testing.T) {
	// The empty system is the empty, complete snapshot.
	col, sent := snapshot.Run(nil, 1)
	if col.Done != 0 || len(col.States) != 0 || len(col.Channels) != 0 || sent != 0 {
		t.Errorf("empty system: %+v, %d messages", col, sent)
	}
}
