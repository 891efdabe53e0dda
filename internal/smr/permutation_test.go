package smr

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// permCase is a randomized permutation input: quick.Value generates the
// system size, the dead set, and the rotation flag.
type permCase struct {
	n      int
	dead   map[sim.ProcID]bool
	rotate bool
}

// Generate implements quick.Generator.
func (permCase) Generate(r *rand.Rand, _ int) reflect.Value {
	n := 1 + r.Intn(64)
	dead := map[sim.ProcID]bool{}
	for id := 1; id <= n; id++ {
		if r.Intn(3) == 0 {
			dead[sim.ProcID(id)] = true
		}
	}
	return reflect.ValueOf(permCase{n: n, dead: dead, rotate: r.Intn(2) == 0})
}

// TestPermutationProperties pins the three contract properties of the
// per-slot replica ordering: the result is always a permutation of 1..n,
// live replicas precede dead ones under rotation, and without rotation the
// ordering is the identity regardless of the dead set. leaderOf must name
// the permutation's first replica without building it.
func TestPermutationProperties(t *testing.T) {
	prop := func(c permCase) bool {
		dead := make([]bool, c.n)
		for id := range c.dead {
			dead[id-1] = true
		}
		perm := make([]sim.ProcID, c.n)
		fillPermutation(perm, dead, c.rotate)
		if want := perm[0]; leaderOf(dead, c.rotate) != want {
			t.Logf("n=%d: leaderOf = %d, the permutation's p1 is %d", c.n, leaderOf(dead, c.rotate), want)
			return false
		}
		if len(perm) != c.n {
			t.Logf("n=%d: permutation has length %d", c.n, len(perm))
			return false
		}
		seen := make(map[sim.ProcID]bool, c.n)
		for _, id := range perm {
			if id < 1 || int(id) > c.n || seen[id] {
				t.Logf("n=%d: %v is not a permutation of 1..n", c.n, perm)
				return false
			}
			seen[id] = true
		}
		if !c.rotate {
			for i, id := range perm {
				if id != sim.ProcID(i+1) {
					t.Logf("n=%d rotate=false: %v is not the identity", c.n, perm)
					return false
				}
			}
			return true
		}
		// Under rotation every live replica precedes every dead one.
		seenDead := false
		for _, id := range perm {
			if c.dead[id] {
				seenDead = true
			} else if seenDead {
				t.Logf("n=%d dead=%v: live replica %d follows a dead one in %v", c.n, c.dead, id, perm)
				return false
			}
		}
		// And both groups stay in ascending id order (determinism).
		for i := 1; i < len(perm); i++ {
			if c.dead[perm[i-1]] == c.dead[perm[i]] && perm[i-1] >= perm[i] {
				t.Logf("n=%d: ids out of order within a liveness group: %v", c.n, perm)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
