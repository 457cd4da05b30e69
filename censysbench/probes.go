package main

import (
	"fmt"
	"time"

	"censysmap/internal/core"
	"censysmap/internal/discovery"
	"censysmap/internal/entity"
	"censysmap/internal/interro"
	"censysmap/internal/simnet"
)

// Layer probes time direct calls to one layer's public entry point on the
// data a traced window left behind. They run after the window closes, so
// they cannot disturb it.

// probePasses is how many passes each probe makes over its inputs; the
// reported figure is the median pass.
const probePasses = 5

// probeScanner is the identity the probes scan as, distinct from the
// pipeline's so they do not share its blocking or loss-draw state.
var probeScanner = simnet.Scanner{ID: "censysbench-probe", SourceIPs: 256, Country: "US"}

// layerProbeResult holds the per-call times of each probe.
type layerProbeResult struct {
	probeNS float64 // simnet.Internet.ProbeTCP, ns per call
	callUS  float64 // interro.Interrogator.Interrogate, µs per call
	countUS float64 // search.Index.Count, µs per call
}

// runLayerProbes times ProbeTCP and Interrogate over the dataset's TCP
// (addr, port) slots and Count over the canned queries.
func runLayerProbes(m *core.Map) (layerProbeResult, error) {
	var slots []core.ServiceRecord
	for _, rec := range m.CurrentServices(false) {
		if rec.Transport == entity.TCP {
			slots = append(slots, rec)
		}
	}
	net := m.Net()
	now := m.Clock().Now()
	it := interro.New(net, probeScanner)
	ix := m.Index()

	var probe, call, count []float64
	for p := 0; p < probePasses && len(slots) > 0; p++ {
		t0 := wall.Now()
		for _, s := range slots {
			net.ProbeTCP(probeScanner, s.Addr, s.Port)
		}
		probe = append(probe, float64(time.Since(t0).Nanoseconds())/float64(len(slots)))

		t0 = wall.Now()
		for _, s := range slots {
			it.Interrogate(discovery.Candidate{Addr: s.Addr, Port: s.Port, Transport: entity.TCP,
				Method: entity.DetectBackgroundScan, PoP: discovery.DefaultPoPs()[0].Name, Time: now}, now)
		}
		call = append(call, float64(time.Since(t0).Nanoseconds())/1e3/float64(len(slots)))
	}
	for p := 0; p < probePasses; p++ {
		t0 := wall.Now()
		for _, q := range searchQueries {
			if _, err := ix.Count(q); err != nil {
				return layerProbeResult{}, fmt.Errorf("count %q: %w", q, err)
			}
		}
		count = append(count, float64(time.Since(t0).Nanoseconds())/1e3/float64(len(searchQueries)))
	}
	return layerProbeResult{probeNS: median(probe), callUS: median(call), countUS: median(count)}, nil
}
