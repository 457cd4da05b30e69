package main

import (
	"fmt"
	"hash/fnv"

	"censysmap/internal/core"
)

// counters is one reading of every layer's public Stats accessors.
type counters struct {
	Ticks            uint64 `json:"ticks"`
	RefreshScans     uint64 `json:"refresh_scans"`
	PredictiveProbes uint64 `json:"predictive_probes"`
	PseudoFlagged    uint64 `json:"pseudo_flagged"`

	DiscoveryProbes uint64 `json:"discovery_probes"`
	DiscoveryOpen   uint64 `json:"discovery_open"`
	LedgerSpent     uint64 `json:"ledger_spent"`
	LedgerConfirmed uint64 `json:"ledger_confirmed"`
	SimnetProbes    uint64 `json:"simnet_probes"`

	InterroAttempts   uint64 `json:"interro_attempts"`
	InterroIdentified uint64 `json:"interro_identified"`
	InterroNoContact  uint64 `json:"interro_no_contact"`

	Observations   uint64 `json:"observations"`
	NoChange       uint64 `json:"no_change"`
	JournalAppends uint64 `json:"journal_appends"`
	JournalBytes   uint64 `json:"journal_bytes"`
	JournalReads   uint64 `json:"journal_reads"`

	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
}

// readCounters reads every layer's counters off a Map. A nil Map reads as
// all zeros (cold-discovery has no Map before its window).
func readCounters(m *core.Map) counters {
	if m == nil {
		return counters{}
	}
	rs := m.Stats()
	ds := m.DiscoveryStats()
	is := m.InterroStats()
	obs, noChange := m.WriteStats()
	js := m.JournalStats()
	cs := m.Index().Stats()
	c := counters{
		Ticks:             rs.Ticks,
		RefreshScans:      rs.RefreshScans,
		PredictiveProbes:  rs.PredictiveProbes,
		PseudoFlagged:     uint64(m.PseudoHosts()),
		DiscoveryProbes:   ds.ProbesSent,
		DiscoveryOpen:     ds.OpenResponses,
		SimnetProbes:      m.Net().ProbesSeen(),
		InterroAttempts:   is.Attempts,
		InterroIdentified: is.Identified,
		InterroNoContact:  is.NoContact,
		Observations:      obs,
		NoChange:          noChange,
		JournalAppends:    js.Appends,
		JournalBytes:      uint64(js.SSDBytes + js.HDDBytes),
		JournalReads:      js.SSDReads + js.HDDReads,
		CacheHits:         cs.Hits,
		CacheMisses:       cs.Misses,
	}
	for _, t := range m.Ledger().Totals() {
		c.LedgerSpent += t.Spent
		c.LedgerConfirmed += t.Confirmed
	}
	return c
}

// sub returns the change from b to c. PseudoFlagged is a level, not a
// running count, so the later reading is kept as is.
func (c counters) sub(b counters) counters {
	return counters{
		Ticks:             c.Ticks - b.Ticks,
		RefreshScans:      c.RefreshScans - b.RefreshScans,
		PredictiveProbes:  c.PredictiveProbes - b.PredictiveProbes,
		PseudoFlagged:     c.PseudoFlagged,
		DiscoveryProbes:   c.DiscoveryProbes - b.DiscoveryProbes,
		DiscoveryOpen:     c.DiscoveryOpen - b.DiscoveryOpen,
		LedgerSpent:       c.LedgerSpent - b.LedgerSpent,
		LedgerConfirmed:   c.LedgerConfirmed - b.LedgerConfirmed,
		SimnetProbes:      c.SimnetProbes - b.SimnetProbes,
		InterroAttempts:   c.InterroAttempts - b.InterroAttempts,
		InterroIdentified: c.InterroIdentified - b.InterroIdentified,
		InterroNoContact:  c.InterroNoContact - b.InterroNoContact,
		Observations:      c.Observations - b.Observations,
		NoChange:          c.NoChange - b.NoChange,
		JournalAppends:    c.JournalAppends - b.JournalAppends,
		JournalBytes:      c.JournalBytes - b.JournalBytes,
		JournalReads:      c.JournalReads - b.JournalReads,
		CacheHits:         c.CacheHits - b.CacheHits,
		CacheMisses:       c.CacheMisses - b.CacheMisses,
	}
}

// workRecord is what every run of one workload and seed must reproduce
// exactly: the dataset digest and the deterministic work counters. Reads
// (journal reads, search-cache hits) are left out: they depend on how
// requests interleave with ticks.
type workRecord struct {
	Digest         string `json:"digest"`
	Services       int    `json:"services"`
	Ticks          uint64 `json:"ticks"`
	Interrogations uint64 `json:"interrogations"`
	ProbeTargets   uint64 `json:"probe_targets"`
	JournalAppends uint64 `json:"journal_appends"`
	JournalBytes   uint64 `json:"journal_bytes"`
}

// recordWork digests the Map's current dataset (pending services included),
// counts its live services, and reads the cumulative work counters.
func recordWork(m *core.Map) workRecord {
	h := fnv.New64a()
	live := 0
	for _, r := range m.CurrentServices(true) {
		fmt.Fprintf(h, "%s|%d|%s|%s|%t|%t|%s|%d|%t\n", r.Addr, r.Port, r.Transport,
			r.Protocol, r.Verified, r.TLS, r.Method, r.LastSeen.UnixNano(), r.Pending)
		if !r.Pending {
			live++
		}
	}
	c := readCounters(m)
	return workRecord{
		Digest:         fmt.Sprintf("%016x", h.Sum64()),
		Services:       live,
		Ticks:          c.Ticks,
		Interrogations: c.InterroAttempts,
		ProbeTargets:   c.LedgerSpent,
		JournalAppends: c.JournalAppends,
		JournalBytes:   c.JournalBytes,
	}
}
