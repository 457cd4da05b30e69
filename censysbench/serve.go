package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"censysmap/internal/core"
	"censysmap/internal/serve"
)

// benchKey is the API key of the benchmark's tenant. The internal tier has
// no rate limit, so a rejection can only be admission control shedding.
const benchKey = "censysbench-key"

// serveConfig is the serving tier the clients talk to: censysd's default
// capacity, one internal-tier tenant.
func serveConfig() serve.Config {
	return serve.Config{
		Tenants:  []serve.Tenant{{Name: "censysbench", Key: benchKey, Tier: "internal"}},
		Capacity: 64,
	}
}

// searchQueries is the query pool of cmd/loadgen's mix; the Zipf draw makes
// the head queries dominate, as repeated dashboard traffic does.
var searchQueries = []string{
	`services.protocol: HTTP`,
	`services.tls: true`,
	`services.port: [1 TO 1024]`,
	`services.protocol: SSH`,
	`services.protocol: HTTP and services.tls: true`,
	`services.protocol: MODBUS`,
}

// request is one generated API call.
type request struct {
	url   string
	class string // lookup | search | export
	ip    string // the host a lookup names
}

// hotSetEvery is how many requests share one popularity ranking of hosts.
// The ranking is redrawn after that, so interest moves between hosts over
// a run. Then the latency figures average over many hot sets instead of
// resting on the handful of hosts one Zipf head picks, which would make
// them a property of the seed more than of the program.
const hotSetEvery = 500

// buildRequests draws n requests in cmd/loadgen's 70/20/10 lookup, search,
// export mix: Zipf-skewed hosts (one lookup in ten reads the history) and
// Zipf-skewed queries, all from one seeded source.
func buildRequests(seed int64, addrs []string, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	addrZipf := rand.NewZipf(rng, 1.2, 1, uint64(len(addrs)-1))
	queryZipf := rand.NewZipf(rng, 1.4, 1, uint64(len(searchQueries)-1))
	var rank []int
	reqs := make([]request, 0, n)
	for i := 0; i < n; i++ {
		if i%hotSetEvery == 0 {
			rank = rng.Perm(len(addrs))
		}
		draw := rng.Intn(100)
		switch {
		case draw < 70:
			ip := addrs[rank[addrZipf.Uint64()]]
			rq := request{url: "/v2/hosts/" + ip, class: "lookup", ip: ip}
			if rng.Intn(10) == 0 {
				rq.url += "/history"
			}
			reqs = append(reqs, rq)
		case draw < 90:
			q := searchQueries[queryZipf.Uint64()]
			reqs = append(reqs, request{url: "/v2/hosts/search?limit=25&q=" + url.QueryEscape(q), class: "search"})
		default:
			q := searchQueries[queryZipf.Uint64()]
			reqs = append(reqs, request{url: "/v2/export/hosts?per_page=100&q=" + url.QueryEscape(q), class: "export"})
		}
	}
	return reqs
}

// mappedAddrs lists every address with a live service in the Map's
// dataset, sorted, so Zipf rank i names the same host on every run.
func mappedAddrs(m *core.Map) []string {
	var out []string
	last := ""
	for _, rec := range m.CurrentServices(false) {
		if a := rec.Addr.String(); a != last {
			out = append(out, a)
			last = a
		}
	}
	return out
}

// checkResponse reports why a reply is not a correct answer to rq: a
// non-2xx status, malformed JSON, or a host lookup that answers for
// another host. Search and export bodies are only scanned for
// well-formedness: decoding them too would double the client's share of
// the two cores the clients share with the server.
func checkResponse(rq request, code int, body []byte) error {
	if code < 200 || code > 299 {
		return fmt.Errorf("%s: status %d", rq.url, code)
	}
	if rq.class != "lookup" || strings.HasSuffix(rq.url, "/history") {
		if !json.Valid(body) {
			return fmt.Errorf("%s: malformed JSON", rq.url)
		}
		return nil
	}
	var host struct {
		IP string `json:"ip"`
	}
	if err := json.Unmarshal(body, &host); err != nil {
		return fmt.Errorf("%s: %w", rq.url, err)
	}
	if host.IP != rq.ip {
		return fmt.Errorf("%s: answered host %q", rq.url, host.IP)
	}
	return nil
}

// blockSize is how many completed requests one serving block holds; rates
// are taken from the per-block times (see sumOfMedians).
const blockSize = 500

// serveResult is what one closed-loop serving phase measured.
type serveResult struct {
	lat      map[string][]time.Duration // by request class
	blocks   []time.Duration            // time to complete each blockSize requests
	served   int
	failed   int
	wall     time.Duration
	firstErr error
}

func (r serveResult) all() []time.Duration {
	var out []time.Duration
	for _, class := range []string{"lookup", "search", "export"} {
		out = append(out, r.lat[class]...)
	}
	return out
}

// serveClosedLoop sends reqs from clients goroutines; each sends its next
// request only once the previous reply is in, as API callers that wait for
// answers do. Latency is the ServeHTTP call; checking the reply is the
// client's own time. afterEach runs on the client goroutine after every
// reply with the running completion count and the request's span ID.
// cacheCounters, when tracing, reads the counters a request span carries.
func serveClosedLoop(h http.Handler, reqs []request, clients int, tr *tracer, cause int,
	cacheCounters func() counters, afterEach func(done, spanID int)) serveResult {
	var (
		next, done atomic.Int64
		mu         sync.Mutex
		wg         sync.WaitGroup
	)
	res := serveResult{lat: map[string][]time.Duration{}}
	// marks[k] is when the (k+1)·blockSize-th reply completed; each is
	// written by the one client whose reply reached that count.
	marks := make([]time.Duration, len(reqs)/blockSize)
	start := wall.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lat := map[string][]time.Duration{}
			failed := 0
			var firstErr error
			for {
				i := next.Add(1) - 1
				if i >= int64(len(reqs)) {
					break
				}
				rq := reqs[i]
				req := httptest.NewRequest(http.MethodGet, rq.url, nil)
				req.Header.Set("Authorization", "Bearer "+benchKey)
				rec := httptest.NewRecorder()
				var before counters
				if cacheCounters != nil {
					before = cacheCounters()
				}
				t0 := wall.Now()
				h.ServeHTTP(rec, req)
				t1 := wall.Now()
				var delta *counters
				if cacheCounters != nil {
					d := cacheCounters().sub(before)
					delta = &d
				}
				id := tr.record("request/"+rq.class, cause, t0, t1, rec.Code, delta)
				lat[rq.class] = append(lat[rq.class], t1.Sub(t0))
				if err := checkResponse(rq, rec.Code, rec.Body.Bytes()); err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
				}
				n := done.Add(1)
				if n%blockSize == 0 {
					marks[n/blockSize-1] = time.Since(start)
				}
				if afterEach != nil {
					afterEach(int(n), id)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			for class, ls := range lat {
				res.lat[class] = append(res.lat[class], ls...)
			}
			res.failed += failed
			if res.firstErr == nil {
				res.firstErr = firstErr
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.served = len(reqs)
	prev := time.Duration(0)
	for _, m := range marks {
		res.blocks = append(res.blocks, m-prev)
		prev = m
	}
	return res
}
