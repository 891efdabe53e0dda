// Package leakcheck is the goroutine-leak gate of the packages whose tests
// spawn goroutines: the TestMain of agree, cmd/agreeserve, internal/harness,
// internal/smr, internal/fuzz, internal/lockstep and internal/check calls
// Main, which fails the test binary when goroutines outlive its tests. Every
// non-test package that starts goroutines (the harness pool, the lockstep
// shards, the parallel explorer of internal/check) is among them.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// Timeout is how long Main waits for the goroutine count to come back down.
const Timeout = 5 * time.Second

// Settle yields until at most base goroutines are left or timeout has
// passed, and returns the last count. A goroutine whose exit has been waited
// for (a WaitGroup release, a closed channel) still counts until the
// scheduler frees it, so the caller yields — never sleeps — until it has;
// a leaked goroutine never exits and runs the timeout out.
func Settle(base int, timeout time.Duration) int {
	got := runtime.NumGoroutine()
	for deadline := time.Now().Add(timeout); got > base && time.Now().Before(deadline); {
		runtime.Gosched()
		got = runtime.NumGoroutine()
	}
	return got
}

// Main runs the tests of m and exits with their code, except that it fails a
// passing binary whose goroutine count has not returned to its starting
// value within Timeout: it then prints every goroutine's stack to stderr and
// exits 1.
func Main(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	if got := Settle(base, Timeout); got > base && code == 0 {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines after the tests, %d before\n%s\n", got, base, buf)
		code = 1
	}
	os.Exit(code)
}
