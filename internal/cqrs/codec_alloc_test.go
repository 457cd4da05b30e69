//go:build !race

package cqrs

import (
	"testing"
	"time"

	"censysmap/internal/entity"
	"censysmap/internal/journal"
)

// The !race tag: the race detector instruments allocations, which breaks
// testing.AllocsPerRun's exact counts. Plain `make test` enforces these.

// TestDecodeZeroAlloc locks in zero steady-state allocations for replaying
// an unchanged service delta onto a warm host record.
func TestDecodeZeroAlloc(t *testing.T) {
	svc := allocProbeService()
	evSvc := journal.Event{
		Kind:    KindServiceChanged,
		Time:    time.Date(2024, 8, 21, 2, 0, 0, 0, time.UTC),
		Payload: EncodeServiceEvent(svc),
	}
	evPend := journal.Event{
		Kind: KindServicePending,
		Time: time.Date(2024, 8, 22, 3, 0, 0, 0, time.UTC),
		Payload: EncodeKeyEvent(entity.ServiceKey{Port: 443, Transport: entity.TCP},
			time.Date(2024, 8, 22, 3, 0, 0, 0, time.UTC)),
	}
	h := &entity.Host{}
	if err := ApplyEvent(h, evSvc); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if err := ApplyEvent(h, evSvc); err != nil {
			t.Fatal(err)
		}
		if err := ApplyEvent(h, evPend); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("ApplyEvent steady state: %v allocs/op, want 0", avg)
	}
}
