package lockstep_test

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the binary when goroutines outlive its tests.
func TestMain(m *testing.M) { leakcheck.Main(m) }
