package sim

import (
	"testing"
)

// FuzzInboxOrdering is the native fuzz target for the engine's deterministic
// inbox ordering, the property every bit-identical-replay guarantee in this
// repo bottoms out in. Arbitrary bytes are decoded into an inbox (a sender
// and a kind per message pair), and the insertion sort must (1) order by
// (sender, data-before-control) with no adjacent inversion, (2) preserve the
// message multiset, (3) be stable — equal-key messages keep their arrival
// order — and (4) produce the same key sequence for any permutation of the
// same multiset (checked against the reversed inbox).
//
// Run the checked-in corpus as part of the normal test suite, or hunt with
//
//	go test -fuzz=FuzzInboxOrdering -fuzztime=20s ./internal/sim
func FuzzInboxOrdering(f *testing.F) {
	f.Add([]byte{1, 0, 2, 1, 3, 0})
	f.Add([]byte{5, 1, 5, 0, 5, 1, 1, 0})
	f.Add([]byte{})
	f.Add([]byte{8, 0, 7, 1, 6, 0, 5, 1, 4, 0, 3, 1, 2, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var in []Message
		for i := 0; i+1 < len(data); i += 2 {
			m := Message{
				From:  ProcID(int(data[i]%8) + 1),
				To:    1,
				Round: 1,
				Kind:  Data,
			}
			if data[i+1]&1 == 1 {
				m.Kind = Control
			} else {
				// The payload value tags the message's arrival position, so
				// the stability check below can tell equal-key messages apart.
				m.Payload = &Est{V: Value(i), B: 64}
			}
			in = append(in, m)
		}
		orig := append([]Message(nil), in...)
		SortInbox(in)

		// (1) Sorted: no adjacent pair is inverted.
		for i := 1; i < len(in); i++ {
			if msgAfter(in[i-1], in[i]) {
				t.Fatalf("inversion at %d: %v before %v", i, in[i-1], in[i])
			}
		}
		// (2) Same multiset.
		count := map[Message]int{}
		for _, m := range orig {
			count[m]++
		}
		for _, m := range in {
			count[m]--
			if count[m] < 0 {
				t.Fatalf("message %v appears more often after sorting", m)
			}
		}
		for m, c := range count {
			if c != 0 {
				t.Fatalf("message %v lost by sorting", m)
			}
		}
		// (3) Stable: per equal key, arrival order preserved.
		key := func(m Message) [2]int { return [2]int{int(m.From), int(m.Kind)} }
		perKey := func(ms []Message) map[[2]int][]Message {
			out := map[[2]int][]Message{}
			for _, m := range ms {
				out[key(m)] = append(out[key(m)], m)
			}
			return out
		}
		want, got := perKey(orig), perKey(in)
		for k, ws := range want {
			gs := got[k]
			for i := range ws {
				if gs[i] != ws[i] {
					t.Fatalf("key %v: order changed at %d: %v vs %v", k, i, gs[i], ws[i])
				}
			}
		}
		// (4) Key sequence independent of arrival permutation.
		rev := make([]Message, len(orig))
		for i, m := range orig {
			rev[len(orig)-1-i] = m
		}
		SortInbox(rev)
		for i := range in {
			if key(in[i]) != key(rev[i]) {
				t.Fatalf("key sequence depends on arrival order at %d: %v vs %v", i, in[i], rev[i])
			}
		}
	})
}
