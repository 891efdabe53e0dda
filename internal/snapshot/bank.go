package snapshot

// Transfer is the token-bank application message: an amount of tokens moving
// between nodes, with a hop budget that guarantees quiescence.
type Transfer struct {
	Amount int64
	Hops   int
}

// Bank is the classic application used to validate snapshots: nodes hold
// token balances and pass tokens around; a consistent snapshot must conserve
// the total (recorded balances plus tokens in recorded channel states equal
// the initial total).
type Bank struct {
	ID      NodeID
	N       int
	Balance int64
	// Plan is the initial outgoing transfers (destination, amount, hops).
	Plan []PlannedTransfer
}

// PlannedTransfer is one scripted initial transfer.
type PlannedTransfer struct {
	To     NodeID
	Amount int64
	Hops   int
}

// NewBank returns a bank node with the given starting balance and transfer
// plan.
func NewBank(id NodeID, n int, balance int64, plan []PlannedTransfer) *Bank {
	return &Bank{ID: id, N: n, Balance: balance, Plan: plan}
}

// Init implements App: it issues the planned transfers.
func (b *Bank) Init(send func(to NodeID, payload any)) {
	for _, p := range b.Plan {
		if p.Amount <= 0 || p.Amount > b.Balance || p.To == b.ID {
			continue
		}
		b.Balance -= p.Amount
		send(p.To, Transfer{Amount: p.Amount, Hops: p.Hops})
	}
}

// next returns the ring successor of this node.
func (b *Bank) next() NodeID {
	return NodeID(int(b.ID)%b.N + 1)
}

// Handle implements App: receive tokens, and forward half of them along the
// ring while the hop budget lasts.
func (b *Bank) Handle(_ NodeID, payload any, send func(to NodeID, payload any)) {
	t, ok := payload.(Transfer)
	if !ok {
		return
	}
	b.Balance += t.Amount
	if t.Hops > 0 && t.Amount >= 2 && b.N > 1 {
		half := t.Amount / 2
		b.Balance -= half
		send(b.next(), Transfer{Amount: half, Hops: t.Hops - 1})
	}
}

// State implements App: the recorded state is the balance.
func (b *Bank) State() any { return b.Balance }

// TotalInChannels sums the token amounts captured in recorded channel
// states.
func TotalInChannels(channels []ChannelState) int64 {
	var sum int64
	for _, cs := range channels {
		for _, p := range cs.Payloads {
			if t, ok := p.(Transfer); ok {
				sum += t.Amount
			}
		}
	}
	return sum
}

// TotalBalances sums recorded balances.
func TotalBalances(states map[NodeID]any) int64 {
	var sum int64
	for _, s := range states {
		if b, ok := s.(int64); ok {
			sum += b
		}
	}
	return sum
}
