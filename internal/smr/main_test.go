package smr_test

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the binary when goroutines outlive its tests: every engine
// a service session opens must be closed by then.
func TestMain(m *testing.M) { leakcheck.Main(m) }
