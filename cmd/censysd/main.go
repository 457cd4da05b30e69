// Command censysd runs the full pipeline against a synthetic Internet and
// serves the lookup REST API:
//
//	censysd -universe 10.0.0.0/20 -days 3 -listen :8181
//
// It fast-forwards the simulated clock through the warmup, then keeps
// advancing simulated time in the background (1 simulated minute per real
// second by default) while serving queries:
//
//	curl localhost:8181/v2/hosts/10.0.1.7
//	curl localhost:8181/v2/hosts/10.0.1.7/history
//	curl localhost:8181/v2/certificates/<sha256>/hosts
//
// The /v2 surface is fronted by the serving tier: per-tenant API keys
// (-api-keys name:key:tier), token-bucket rate limits and daily quotas per
// tier, priority-aware load shedding (-capacity), snapshot-pinned bulk
// export under /v2/export/hosts, and ETag conditional GETs. Unauthenticated
// requests are served under -anonymous-tier (default free); set it empty to
// require a key.
//
// With -scenario the synthetic Internet turns hostile: a named preset
// (honeyfarm, tarpit, detector, churn, full) or key=value pairs
// (honeypot_farms=2,tarpit_rate=0.1) overlay honeypot farms, tarpits, scan
// detectors, and banner churn on the universe, and the pipeline's
// countermeasures (deadline budgets, adaptive backoff, honeypot uniformity
// detection) default on.
//
// With -cluster-nodes N the process simulates an N-node serving cluster:
// journal partitions replicate to per-node replica journals, point lookups
// route to the partition's lease holder (X-Censys-Serving-Node names it),
// and quorum health surfaces in X-Censys-Degraded. -node-id picks which
// node this process front-ends for identification in logs.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"net/netip"
	"os"
	"strings"
	"time"

	"censysmap"
	"censysmap/internal/cluster"
	"censysmap/internal/core"
	"censysmap/internal/serve"
	"censysmap/internal/simnet"
	"censysmap/internal/telemetry"
)

// parseTenants parses the -api-keys flag: comma-separated name:key:tier
// entries, e.g. "alice:s3cret:standard,bench:hunter2:internal".
func parseTenants(raw string) ([]serve.Tenant, error) {
	if raw == "" {
		return nil, nil
	}
	var out []serve.Tenant
	for _, entry := range strings.Split(raw, ",") {
		parts := strings.Split(entry, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("bad -api-keys entry %q (want name:key:tier)", entry)
		}
		out = append(out, serve.Tenant{Name: parts[0], Key: parts[1], Tier: parts[2]})
	}
	return out, nil
}

func main() {
	universe := flag.String("universe", "10.0.0.0/20", "IPv4 universe prefix")
	days := flag.Int("days", 2, "simulated days to warm up before serving")
	listen := flag.String("listen", ":8181", "REST API listen address")
	seed := flag.Uint64("seed", 1, "universe seed")
	rate := flag.Duration("rate", time.Minute, "simulated time advanced per real second")
	clusterNodes := flag.Int("cluster-nodes", 0, "simulate an N-node serving cluster (0 = single-process)")
	nodeID := flag.Int("node-id", 0, "node this process identifies as (requires -cluster-nodes)")
	apiKeys := flag.String("api-keys", "",
		"serving-tier tenants, comma-separated name:key:tier (tiers: free, standard, enterprise, internal)")
	anonTier := flag.String("anonymous-tier", "free",
		"tier unauthenticated requests are served under; empty requires an API key (401)")
	capacity := flag.Int("capacity", 64,
		"max concurrently admitted requests; load shedding starts at half this")
	pprofAddr := flag.String("pprof", "",
		"side listener exposing net/http/pprof (e.g. localhost:6060); empty disables")
	predict := flag.Bool("predict", true,
		"GPS-style predictive scanning: seed scan, cross-port model, predicted targets")
	predictBudget := flag.Int("predict-budget", 0,
		"predictive probes per scheduling tick (0 = pipeline default; requires -predict)")
	scenario := flag.String("scenario", "",
		"adversarial scenario: a preset ("+strings.Join(simnet.ScenarioNames(), ", ")+
			") or key=value pairs like honeypot_farms=2,tarpit_rate=0.1 (empty = benign)")
	flag.Parse()

	// The profiler gets its own listener and mux so /debug/pprof/ never
	// shares a port with the public API surface (it bypasses the serving
	// tier's auth and admission control by design — bind it to localhost).
	if *pprofAddr != "" {
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := newHTTPServer(*pprofAddr, pmux).ListenAndServe(); err != nil {
				fmt.Fprintln(os.Stderr, "pprof listener:", err)
			}
		}()
		fmt.Printf("pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	prefix, err := netip.ParsePrefix(*universe)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bad -universe:", err)
		os.Exit(2)
	}
	// The facade's default pipeline, adjusted by the prediction flags: the
	// cloud region is the default network's, as the universe is generated
	// from simnet.DefaultConfig().
	pcfg := core.DefaultConfig()
	pcfg.CloudBlocks = simnet.DefaultConfig().CloudBlocks
	pcfg.Telemetry = telemetry.New()
	pcfg.DisablePrediction = !*predict
	if *predictBudget > 0 {
		pcfg.PredictBudgetPerTick = *predictBudget
	}
	sys, err := censysmap.NewSystem(censysmap.Options{Universe: prefix, Seed: *seed,
		Pipeline: &pcfg, Scenario: *scenario})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *scenario != "" {
		st := sys.Internet().AdversaryStats()
		fmt.Printf("scenario %q: %d farms (%d honeypots), %d tarpits (%d drip), %d detector /24s, %d churn hosts\n",
			*scenario, st.Farms, st.HoneypotHosts, st.TarpitHosts, st.DripTarpits,
			st.DetectorNets, st.ChurnHosts)
	}

	var cl *cluster.Cluster
	if *clusterNodes > 0 {
		if *nodeID < 0 || *nodeID >= *clusterNodes {
			fmt.Fprintf(os.Stderr, "bad -node-id: %d outside 0..%d\n", *nodeID, *clusterNodes-1)
			os.Exit(2)
		}
		cl, err = cluster.New(sys.Map(), cluster.Config{
			Nodes:     *clusterNodes,
			Telemetry: sys.Metrics(),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	// advance moves simulated time, driving a replication round around each
	// advance when clustered.
	advance := func(d time.Duration) {
		if cl == nil {
			sys.Run(d)
			return
		}
		if err := cl.Step(func() { sys.Run(d) }); err != nil {
			fmt.Fprintln(os.Stderr, "replication:", err)
			os.Exit(1)
		}
	}

	fmt.Printf("universe %v: %d hosts; warming up %d simulated days...\n",
		prefix, sys.Internet().Hosts(), *days)
	start := time.Now()
	advance(time.Duration(*days) * 24 * time.Hour)
	fmt.Printf("warmup done in %v: %d services mapped, %d web properties, sim time %v\n",
		time.Since(start).Round(time.Millisecond), len(sys.Services()),
		len(sys.WebProperties()), sys.Now().Format(time.RFC3339))
	if cl != nil {
		st := cl.Stats()
		fmt.Printf("cluster: %d nodes, serving as %s; %d partitions replicated, %d records shipped\n",
			cl.Nodes(), cl.NodeName(*nodeID), cl.Partitions(), st.RecordsShipped)
	}

	// Keep simulated time flowing while serving. Queries route through the
	// placement on every request, so each advance's replication round is
	// immediately visible.
	go func() {
		for range time.Tick(time.Second) {
			advance(*rate)
		}
	}()

	tenants, err := parseTenants(*apiKeys)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	front, err := sys.Frontend(serve.Config{
		Tenants:       tenants,
		AnonymousTier: *anonTier,
		Capacity:      *capacity,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	mux := http.NewServeMux()
	mux.Handle("/v2/", front)
	fmt.Printf("serving on %s\n", *listen)
	if err := newHTTPServer(*listen, mux).ListenAndServe(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// Connection timeouts for every censysd listener. They bound how long a
// client may take to send request headers and how long an idle keep-alive
// connection is held. There is deliberately no read or write timeout: bulk
// export streams and pprof profiles legitimately run for many seconds.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}
