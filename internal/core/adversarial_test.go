package core

import (
	"net/netip"
	"runtime"
	"testing"
	"time"

	"censysmap/internal/simclock"
	"censysmap/internal/simnet"
)

// Satellite tests for the adversarial scenario pack: interrogation-pool
// liveness at 100% tarpit density (run under -race by `make adversarial`),
// drip-tarpit pseudo filtering, and honeypot-farm uniformity flagging.

// tarpitCoreUniverse is a universe where every host is a tarpit.
func tarpitCoreUniverse(t *testing.T, dripRate float64) (*simnet.Internet, *simclock.Sim) {
	t.Helper()
	cfg := simnet.DefaultConfig()
	cfg.Prefix = netip.MustParsePrefix("10.0.0.0/23")
	cfg.CloudBlocks = 1
	cfg.WebProperties = 0
	cfg.BaseLoss = 0
	cfg.OutageRate = 0
	cfg.GeoblockRate = 0
	cfg.PseudoHostRate = 0
	cfg.Adversary = simnet.AdversaryConfig{
		Seed:           21,
		TarpitRate:     1.0,
		TarpitDripRate: dripRate,
	}
	clk := simclock.New()
	return simnet.New(cfg, clk), clk
}

// TestTarpitLivenessAllStall drives the full pipeline against a universe
// where every endpoint accepts and then stalls forever. The worker pool must
// stay live (ticks complete in wall-clock time, no goroutine leak), and the
// budget accounting must be exact: every TCP interrogation attempt exhausts
// its total budget exactly once.
func TestTarpitLivenessAllStall(t *testing.T) {
	baseline := runtime.NumGoroutine()

	net, _ := tarpitCoreUniverse(t, 0)
	cfg := DefaultConfig()
	cfg.CloudBlocks = 1
	cfg.DisablePrediction = true // no 65K seed scan; keep the run focused
	m, err := New(cfg, net)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Run(8 * time.Hour)
		m.Stop()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("pipeline wedged against 100% stall tarpits")
	}

	ds := m.InterroDeadlineStats()
	is := m.InterroStats()
	if is.Attempts == 0 {
		t.Fatal("no interrogations launched")
	}
	// Exactness: every attempt is a TCP candidate against a stalling tarpit
	// (UDP probes into tarpits drop, nothing ever succeeds, so there are no
	// refreshes or retries), and each one exhausts Total exactly once.
	if ds.TotalExhausted != is.Attempts {
		t.Fatalf("TotalExhausted = %d, want exactly Attempts = %d", ds.TotalExhausted, is.Attempts)
	}
	if ds.VirtualMillis == 0 {
		t.Fatal("no virtual time charged")
	}
	if got := len(m.CurrentServices(true)); got != 0 {
		t.Fatalf("stall tarpits produced %d dataset records", got)
	}

	// No wedged workers: goroutine count settles back to (about) baseline.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestDripTarpitsGetPseudoFiltered: dripping tarpits answer every port with
// junk, so they accumulate UNKNOWN records until the pseudo-service filter
// flags the host and purges it.
func TestDripTarpitsGetPseudoFiltered(t *testing.T) {
	net, _ := tarpitCoreUniverse(t, 1.0)
	cfg := DefaultConfig()
	cfg.CloudBlocks = 1
	cfg.DisablePrediction = true
	cfg.PseudoServiceThreshold = 5
	m, err := New(cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(12 * time.Hour)
	m.Stop()

	if m.PseudoHosts() == 0 {
		t.Fatal("no drip tarpit was pseudo-flagged")
	}
	for _, r := range m.CurrentServices(false) {
		if r.Protocol != "UNKNOWN" {
			t.Fatalf("drip tarpit produced a verified %s record at %v:%d", r.Protocol, r.Addr, r.Port)
		}
	}
}

// TestHoneypotFarmsGetFlagged: whole-/24 honeypot farms present verified ICS
// services with byte-identical fingerprints; the uniformity detector must
// flag them and keep them out of the dataset and the search index.
func TestHoneypotFarmsGetFlagged(t *testing.T) {
	cfg := simnet.DefaultConfig()
	cfg.Prefix = netip.MustParsePrefix("10.0.0.0/22")
	cfg.CloudBlocks = 1
	cfg.WebProperties = 0
	cfg.BaseLoss = 0
	cfg.OutageRate = 0
	cfg.GeoblockRate = 0
	cfg.Adversary = simnet.AdversaryConfig{
		Seed:          9,
		HoneypotFarms: 2,
	}
	clk := simclock.New()
	net := simnet.New(cfg, clk)

	mcfg := DefaultConfig()
	mcfg.CloudBlocks = 1
	mcfg.DisablePrediction = true
	mcfg.HoneypotUniformityThreshold = 8
	m, err := New(mcfg, net)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(26 * time.Hour)
	m.Stop()

	flagged := m.HoneypotHosts()
	if len(flagged) < 8 {
		t.Fatalf("only %d honeypot hosts flagged", len(flagged))
	}
	if m.Stats().HoneypotsFlagged != uint64(len(flagged)) {
		t.Fatalf("HoneypotsFlagged = %d but %d hosts flagged", m.Stats().HoneypotsFlagged, len(flagged))
	}
	// Every flagged address really is a honeypot (no benign host caught).
	for _, a := range flagged {
		if h := net.HostAt(a); h == nil || !h.Honeypot {
			t.Fatalf("flagged %v which is not a honeypot", a)
		}
	}
	// The dataset carries no record for any flagged host.
	isFlagged := make(map[netip.Addr]bool, len(flagged))
	for _, a := range flagged {
		isFlagged[a] = true
	}
	for _, r := range m.CurrentServices(true) {
		if isFlagged[r.Addr] {
			t.Fatalf("dataset still exports flagged honeypot %v:%d", r.Addr, r.Port)
		}
	}
	// And the search index no longer surfaces them.
	for _, a := range flagged[:4] {
		if _, ok := m.HostCurrent(a); ok {
			t.Fatalf("HostCurrent still serves flagged honeypot %v", a)
		}
	}
}
