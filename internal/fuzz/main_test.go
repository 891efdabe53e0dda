package fuzz

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the binary when goroutines outlive its tests: the campaign
// worker pool and every engine a test opens must be gone by then.
func TestMain(m *testing.M) { leakcheck.Main(m) }
