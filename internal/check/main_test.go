package check_test

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the binary when goroutines outlive its tests: every worker
// ExploreParallel starts must be gone by then.
func TestMain(m *testing.M) { leakcheck.Main(m) }
