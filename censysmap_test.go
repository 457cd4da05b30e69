package censysmap

import (
	"encoding/json"
	"net/http/httptest"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"censysmap/internal/core"
)

// smallSystem builds a fast system for facade tests.
func smallSystem(t *testing.T) *System {
	t.Helper()
	sys, err := NewSystem(Options{
		Universe: netip.MustParsePrefix("10.0.0.0/22"),
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestSystemEndToEnd(t *testing.T) {
	sys := smallSystem(t)
	sys.Run(26 * time.Hour)

	services := sys.Services()
	if len(services) == 0 {
		t.Fatal("no services mapped")
	}

	// Search.
	n, err := sys.Count(`services.protocol: HTTP`)
	if err != nil || n == 0 {
		t.Fatalf("Count = %d, err=%v", n, err)
	}

	// Host lookup.
	h, ok := sys.Host(services[0].Addr)
	if !ok || len(h.ActiveServices()) == 0 {
		t.Fatalf("Host lookup failed for %v", services[0].Addr)
	}

	// History.
	if len(sys.History(services[0].Addr)) == 0 {
		t.Fatal("no history")
	}

	// Time travel: state as of an hour ago exists.
	if _, ok := sys.HostAt(services[0].Addr, sys.Now().Add(-time.Hour)); !ok {
		// The host may genuinely not have existed an hour in; current must.
		if _, ok := sys.HostAt(services[0].Addr, sys.Now()); !ok {
			t.Fatal("HostAt(now) failed")
		}
	}
}

func TestSystemRESTAPI(t *testing.T) {
	sys := smallSystem(t)
	sys.Run(26 * time.Hour)
	services := sys.Services()
	if len(services) == 0 {
		t.Fatal("no services")
	}
	srv := httptest.NewServer(sys.APIHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v2/hosts/" + services[0].Addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var h Host
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.IP != services[0].Addr {
		t.Fatalf("host = %v", h.IP)
	}
}

func TestSystemDeterministic(t *testing.T) {
	build := func() int {
		sys, err := NewSystem(Options{
			Universe: netip.MustParsePrefix("10.0.0.0/23"),
			Seed:     3,
		})
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(24 * time.Hour)
		return len(sys.Services())
	}
	if a, b := build(), build(); a != b {
		t.Fatalf("non-deterministic: %d vs %d services", a, b)
	}
}

// TestPipelineUsedAsGiven: a non-nil Options.Pipeline is the pipeline's
// configuration, not a hint. A serial layout must run serial, and since the
// dataset is layout-invariant it matches the default (sharded) System's.
func TestPipelineUsedAsGiven(t *testing.T) {
	build := func(pipeline *core.Config) *System {
		sys, err := NewSystem(Options{
			Universe: netip.MustParsePrefix("10.0.0.0/23"),
			Seed:     3,
			Pipeline: pipeline,
		})
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(24 * time.Hour)
		return sys
	}
	cfg := core.DefaultConfig()
	cfg.Shards = 1
	cfg.InterroWorkers = 1
	serial, sharded := build(&cfg), build(nil)
	if got := serial.Map().Journal().Partitions(); got != 1 {
		t.Fatalf("serial Pipeline ran with %d journal partitions", got)
	}
	if got := sharded.Map().Journal().Partitions(); got != core.DefaultConfig().Shards {
		t.Fatalf("nil Pipeline ran with %d journal partitions, want the default %d",
			got, core.DefaultConfig().Shards)
	}
	if serial.Metrics() != nil || sharded.Metrics() == nil {
		t.Fatal("telemetry must follow Pipeline.Telemetry, defaulting on only for a nil Pipeline")
	}
	a, b := serial.Services(), sharded.Services()
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("serial and sharded datasets differ: %d vs %d services", len(a), len(b))
	}
}

func TestDefaultUniverse(t *testing.T) {
	sys, err := NewSystem(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Internet().Hosts() == 0 {
		t.Fatal("empty default universe")
	}
	if !sys.Now().Equal(sys.Clock().Now()) {
		t.Fatal("clock mismatch")
	}
}

func TestSystemScenarioOption(t *testing.T) {
	// A preset name turns on the hostile overlay and the countermeasures.
	sys, err := NewSystem(Options{
		Universe: netip.MustParsePrefix("10.0.0.0/22"),
		Seed:     7,
		Scenario: "full",
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sys.Internet().AdversaryStats()
	if st.Farms == 0 || st.TarpitHosts == 0 || st.ChurnHosts == 0 {
		t.Fatalf("scenario \"full\" built a benign universe: %+v", st)
	}
	sys.Run(6 * time.Hour)
	if sys.Map().InterroDeadlineStats().VirtualMillis == 0 {
		t.Fatal("deadline budgets not defaulted on under a hostile scenario")
	}

	// A compact scenario string works too.
	if _, err := NewSystem(Options{
		Universe: netip.MustParsePrefix("10.0.0.0/22"),
		Scenario: "honeypot_farms=1,banner_churn_rate=0.2",
	}); err != nil {
		t.Fatal(err)
	}

	// A bad scenario surfaces the parse error instead of a benign run.
	if _, err := NewSystem(Options{
		Universe: netip.MustParsePrefix("10.0.0.0/22"),
		Scenario: "tarpit_rate=3",
	}); err == nil {
		t.Fatal("bad scenario accepted")
	}
}
