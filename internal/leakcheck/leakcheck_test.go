package leakcheck_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// TestSettle checks both outcomes of the yield loop: a goroutine that has
// been released is waited out, one that is still blocked runs the timeout
// out and is counted.
func TestSettle(t *testing.T) {
	base := runtime.NumGoroutine()
	block, done := make(chan struct{}), make(chan struct{})
	go func() {
		<-block
		close(done)
	}()
	if got := leakcheck.Settle(base, 10*time.Millisecond); got != base+1 {
		t.Errorf("Settle with a blocked goroutine = %d, want %d", got, base+1)
	}
	close(block)
	<-done
	if got := leakcheck.Settle(base, leakcheck.Timeout); got != base {
		t.Errorf("Settle after the goroutine returned = %d, want %d", got, base)
	}
}
