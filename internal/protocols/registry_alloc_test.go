//go:build !race

package protocols

import "testing"

// The !race tag: the race detector instruments allocations, which breaks
// testing.AllocsPerRun's exact counts.

// TestAllAllocFree: ForPort, Identify and the interrogation battery call
// All several times per interrogation, so it hands out the registry's one
// sorted slice instead of building and sorting a copy.
func TestAllAllocFree(t *testing.T) {
	if avg := testing.AllocsPerRun(100, func() { _ = All() }); avg != 0 {
		t.Fatalf("All: %v allocs/op, want 0", avg)
	}
}
