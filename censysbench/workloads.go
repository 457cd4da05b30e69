package main

import (
	"fmt"
	"net/netip"
	"runtime"
	"time"

	"censysmap"
	"censysmap/internal/core"
	"censysmap/internal/simclock"
	"censysmap/internal/simnet"
	"censysmap/internal/telemetry"
)

// Workload sizes. They are fixed: a repetition does the same work however
// long the run is, and a run only repeats it.
const (
	// refreshWindowHours and coldWindowHours are the simulated hours each
	// pipeline window ticks through.
	refreshWindowHours = 24
	coldWindowHours    = 24
	// serveWarmHours warms the serve-under-scan map before its clients start.
	serveWarmHours = 48
	// serveRequests is one serve-under-scan window; a tick runs after every
	// tickEvery completed requests, 40 ticks a window. That compresses
	// censysd's default cadence, one tick per 60 s of wall time, by about
	// 480 times (see README.md).
	serveRequests = 20000
	tickEvery     = 500
	// readRequests is the read-only serving phase after a pipeline window.
	readRequests = 6000
	// clients is the number of closed-loop API callers (one per core of the
	// 2-core machine the benchmark was sized on).
	clients = 2
)

// seeds are a workload's inputs: the synthetic universe and the request mix.
type seeds struct {
	universe uint64
	requests int64
}

// censysdUniverseSeed is censysd's default -seed. serve-under-scan serves
// the map censysd serves by default, so its --seed varies only the request
// stream. A /20 at default density holds about 400 hosts, too few for the
// tick work to be the same across universes: with the universe drawn from
// --seed, interro_per_s spread 22% between quartiles over ten seeds.
const censysdUniverseSeed = 1

// seedsFrom derives both seeds from the --seed argument.
func seedsFrom(seed uint64) seeds {
	return seeds{universe: seed + 1, requests: int64(seed)*7919 + 7}
}

// repResult is what one repetition of a workload measured.
type repResult struct {
	setup    time.Duration   // everything before the window
	seedScan time.Duration   // core.Map.Start (the facade constructor on serve-under-scan)
	pipeWall time.Duration   // wall time of the timed pipeline calls
	measured time.Duration   // window plus serving phase
	steps    []time.Duration // the timed pipeline calls, in order
	ticks    []time.Duration
	work     counters // pipeline counters over the window
	total    counters // all counters from window start to the end of serving
	serve    serveResult
	heapMB   float64
	record   workRecord
	services int       // live services when the window opened
	m        *core.Map // the repetition's map, kept for layer probes
}

// workload is one named benchmark workload.
type workload struct {
	name string
	run  func(s seeds, tr *tracer) (repResult, error)
}

var workloads = []workload{
	{"refresh-steady", func(s seeds, tr *tracer) (repResult, error) { return runPipeline(refreshSteady(s), s, tr) }},
	{"cold-discovery", func(s seeds, tr *tracer) (repResult, error) { return runPipeline(coldDiscovery(s), s, tr) }},
	{"serve-under-scan", runServeUnderScan},
}

// pipelineSpec describes a pipeline workload.
type pipelineSpec struct {
	net  simnet.Config
	pipe core.Config
	// startInWindow times core.New and Start (the seed scan) in the window;
	// otherwise they are set-up, followed by warmHours of ticks.
	startInWindow bool
	warmHours     int
	windowHours   int
}

// pipelineConfig is censysd's pipeline: the default layout with telemetry.
func pipelineConfig(net simnet.Config) core.Config {
	cfg := core.DefaultConfig()
	cfg.CloudBlocks = net.CloudBlocks
	cfg.Telemetry = telemetry.New()
	return cfg
}

// refreshSteady is a dense /20 refreshed hourly: Phase 2 dominates.
func refreshSteady(s seeds) pipelineSpec {
	net := simnet.DefaultConfig()
	net.Prefix = netip.MustParsePrefix("10.0.0.0/20")
	net.Seed = s.universe
	net.HostDensity = 0.5
	net.CloudBlocks = 1
	net.WebProperties = 20
	pipe := pipelineConfig(net)
	pipe.RefreshEvery = time.Hour
	return pipelineSpec{net: net, pipe: pipe, warmHours: 24, windowHours: refreshWindowHours}
}

// coldDiscovery is a fresh /18 at default density with daily refresh:
// Phase 1 dominates.
func coldDiscovery(s seeds) pipelineSpec {
	net := simnet.DefaultConfig()
	net.Prefix = netip.MustParsePrefix("10.0.0.0/18")
	net.Seed = s.universe
	return pipelineSpec{net: net, pipe: pipelineConfig(net), startInWindow: true, windowHours: coldWindowHours}
}

// tick advances the clock one pipeline tick and records it as a span.
func tick(clk *simclock.Sim, m *core.Map, tr *tracer, cause int) time.Duration {
	var before counters
	if tr != nil {
		before = readCounters(m)
	}
	t0 := wall.Now()
	clk.Advance(time.Hour)
	t1 := wall.Now()
	if tr != nil {
		d := readCounters(m).sub(before)
		tr.record("tick", cause, t0, t1, 0, &d)
	}
	return t1.Sub(t0)
}

// start runs core.New and Map.Start (the seed scan) as one span.
func start(spec pipelineSpec, net *simnet.Internet, tr *tracer, cause int) (*core.Map, time.Duration, error) {
	t0 := wall.Now()
	m, err := core.New(spec.pipe, net)
	if err != nil {
		return nil, 0, fmt.Errorf("core.New: %w", err)
	}
	m.Start()
	t1 := wall.Now()
	tr.record("start", cause, t0, t1, 0, nil)
	return m, t1.Sub(t0), nil
}

// runPipeline runs one repetition of a pipeline workload: set-up, the timed
// window, then a read-only serving phase over the map the window built.
func runPipeline(spec pipelineSpec, s seeds, tr *tracer) (repResult, error) {
	var r repResult
	t0 := wall.Now()
	setupID := tr.reserve()
	clk := simclock.New()
	net := simnet.New(spec.net, clk)
	var m *core.Map
	var err error
	if !spec.startInWindow {
		if m, r.seedScan, err = start(spec, net, tr, setupID); err != nil {
			return r, err
		}
		for h := 0; h < spec.warmHours; h++ {
			tick(clk, m, tr, setupID)
		}
	}
	r.setup = time.Since(t0)
	tr.finish(setupID, "setup", 0, t0, t0.Add(r.setup), nil)

	before := readCounters(m)
	if m != nil {
		r.services = len(m.CurrentServices(false))
	}
	runtime.GC() // every window starts from the same collector state
	windowID := tr.reserve()
	tr.beginMeasure()
	w0 := wall.Now()
	if spec.startInWindow {
		if m, r.seedScan, err = start(spec, net, tr, windowID); err != nil {
			return r, err
		}
		r.steps = append(r.steps, r.seedScan)
	}
	for h := 0; h < spec.windowHours; h++ {
		r.ticks = append(r.ticks, tick(clk, m, tr, windowID))
	}
	r.steps = append(r.steps, r.ticks...)
	r.pipeWall = time.Since(w0)
	r.work = readCounters(m).sub(before)
	tr.finish(windowID, "window", 0, w0, w0.Add(r.pipeWall), &r.work)

	front, err := m.Frontend(serveConfig())
	if err != nil {
		return r, fmt.Errorf("frontend: %w", err)
	}
	addrs := mappedAddrs(m)
	if len(addrs) < 2 {
		return r, fmt.Errorf("only %d hosts mapped", len(addrs))
	}
	reqs := buildRequests(s.requests, addrs, readRequests)
	serveID := tr.reserve()
	s0 := wall.Now()
	r.serve = serveClosedLoop(front, reqs, clients, tr, serveID, cacheReader(m, tr), nil)
	tr.finish(serveID, "serve", 0, s0, s0.Add(r.serve.wall), nil)
	r.measured = time.Since(w0)
	tr.endMeasure()
	r.total = readCounters(m).sub(before)
	r.heapMB = liveHeapMB()
	r.record = recordWork(m)
	r.m = m
	return r, nil
}

// runServeUnderScan warms censysd's default map, then serves the closed-loop mix
// while a separate goroutine advances the map one tick after every
// tickEvery completed requests, as censysd's tick loop runs beside its API
// (at a compressed cadence).
func runServeUnderScan(s seeds, tr *tracer) (repResult, error) {
	var r repResult
	t0 := wall.Now()
	setupID := tr.reserve()
	sys, err := censysmap.NewSystem(censysmap.Options{
		Universe: netip.MustParsePrefix("10.0.0.0/20"), Seed: censysdUniverseSeed})
	if err != nil {
		return r, err
	}
	r.seedScan = time.Since(t0)
	tr.record("start", setupID, t0, t0.Add(r.seedScan), 0, nil)
	m := sys.Map()
	for h := 0; h < serveWarmHours; h++ {
		tick(sys.Clock(), m, tr, setupID)
	}
	front, err := sys.Frontend(serveConfig())
	if err != nil {
		return r, fmt.Errorf("frontend: %w", err)
	}
	addrs := mappedAddrs(m)
	if len(addrs) < 2 {
		return r, fmt.Errorf("only %d hosts mapped", len(addrs))
	}
	reqs := buildRequests(s.requests, addrs, serveRequests)
	r.setup = time.Since(t0)
	r.services = len(m.CurrentServices(false))
	tr.finish(setupID, "setup", 0, t0, t0.Add(r.setup), nil)

	before := readCounters(m)
	runtime.GC() // every window starts from the same collector state
	windowID := tr.reserve()
	tr.beginMeasure()
	w0 := wall.Now()
	causes := make(chan int, serveRequests/tickEvery) // one send per tick
	ticked := make(chan struct{})
	go func() {
		defer close(ticked)
		for cause := range causes {
			r.ticks = append(r.ticks, tick(sys.Clock(), m, tr, cause))
		}
	}()
	r.serve = serveClosedLoop(front, reqs, clients, tr, windowID, cacheReader(m, tr),
		func(done, spanID int) {
			if done%tickEvery == 0 {
				causes <- spanID
			}
		})
	close(causes)
	<-ticked
	r.measured = time.Since(w0)
	tr.endMeasure()
	r.steps = r.ticks
	for _, d := range r.ticks {
		r.pipeWall += d
	}
	r.work = readCounters(m).sub(before)
	r.total = r.work
	tr.finish(windowID, "window", 0, w0, w0.Add(r.measured), &r.work)
	r.heapMB = liveHeapMB()
	r.record = recordWork(m)
	r.m = m
	return r, nil
}

// cacheReader returns the cheap counters a traced request span carries:
// the search cache's atomics. The other layers' Stats walk whole
// structures (journal.Stats visits every row), which per request would
// put the tracer's own cost into those layers' CPU share.
func cacheReader(m *core.Map, tr *tracer) func() counters {
	if tr == nil {
		return nil
	}
	return func() counters {
		cs := m.Index().Stats()
		return counters{CacheHits: cs.Hits, CacheMisses: cs.Misses}
	}
}

// liveHeapMB forces a collection and reports the heap still in use.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
