// Command censysbench is the fixed-workload benchmark of the censysmap
// pipeline and its serving tier. Run it from the repository root through
// its wrapper, which builds it first:
//
//	bash censysbench/run.sh --workload refresh-steady --seed 1 --seconds 35 --trace 0
//
// A run repeats one seeded workload until --seconds have passed, each
// repetition in a fresh child process, checks every repetition's output,
// and prints one JSON object as its last line of standard output:
// end-to-end metrics with --trace 0, per-layer metrics (from one traced
// repetition, a CPU profile and layer probes) with --trace 1. See
// README.md beside this file for the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"censysmap/internal/simclock"
)

// minReps is the fewest untraced repetitions a run makes, whatever its
// time budget, so per-step medians have a middle value.
const minReps = 3

// repTimeout bounds one repetition's child process.
const repTimeout = 120 * time.Second

// wall is the benchmark's stopwatch. It reads the system clock through
// simclock, as the repository's clock discipline asks of code outside it.
var wall simclock.Real

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("censysbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: refresh-steady, cold-discovery or serve-under-scan")
	seed := fs.Uint64("seed", 1, "seed the universe and request mix are drawn from")
	seconds := fs.Float64("seconds", 35, "how long to keep repeating the workload")
	trace := fs.Int("trace", 0, "1 adds one traced repetition and reports per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for span dumps and CPU profiles")
	rep := fs.Bool("rep", false, "run a single repetition and print its summary (the parent's child mode)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "censysbench: need --workload (one of refresh-steady, cold-discovery, serve-under-scan), --seconds > 0 and --trace 0 or 1\n")
		return 2
	}
	var res any
	var err error
	if *rep {
		res, err = repetition(*w, *seed, *trace == 1, *out)
	} else {
		res, err = measure(*w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "censysbench:", err)
		return 1
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "censysbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(blob))
	return 0
}

// repSummary is what one repetition reports to the parent process.
type repSummary struct {
	SetupS    float64           `json:"setup_s"`
	WindowS   float64           `json:"window_s"`
	MeasuredS float64           `json:"measured_s"`
	StepsNS   []int64           `json:"steps_ns"`
	BlocksNS  []int64           `json:"blocks_ns"`
	P50MS     float64           `json:"p50_ms"`
	P99MS     float64           `json:"p99_ms"`
	Requests  int               `json:"requests"`
	Failed    int               `json:"failed"`
	FirstErr  string            `json:"first_err,omitempty"`
	Work      counters          `json:"work"`
	HeapMB    float64           `json:"heap_mb"`
	Services  int               `json:"services_at_start"`
	Record    workRecord        `json:"record"`
	Layer     map[string]metric `json:"layer,omitempty"`
}

func nanos(ds []time.Duration) []int64 {
	out := make([]int64, len(ds))
	for i, d := range ds {
		out[i] = d.Nanoseconds()
	}
	return out
}

func durations(ns []int64) []time.Duration {
	out := make([]time.Duration, len(ns))
	for i, n := range ns {
		out[i] = time.Duration(n)
	}
	return out
}

// repetition runs the workload once in this process and summarises it;
// a traced repetition also profiles, probes the layers, and writes its
// spans and profile under out.
func repetition(w workload, seed uint64, traced bool, out string) (repSummary, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	r, err := w.run(seedsFrom(seed), tr)
	if err != nil {
		return repSummary{}, fmt.Errorf("%s: %w", w.name, err)
	}
	lat := millis(r.serve.all())
	sum := repSummary{
		SetupS: r.setup.Seconds(), WindowS: r.pipeWall.Seconds(), MeasuredS: r.measured.Seconds(),
		StepsNS: nanos(r.steps), BlocksNS: nanos(r.serve.blocks),
		P50MS: percentile(lat, 50), P99MS: percentile(lat, 99),
		Requests: r.serve.served, Failed: r.serve.failed,
		Work: r.work, HeapMB: r.heapMB, Record: r.record, Services: r.services,
	}
	if r.serve.firstErr != nil {
		sum.FirstErr = r.serve.firstErr.Error()
	}
	if !traced {
		return sum, nil
	}
	if tr.profileErr != nil {
		return repSummary{}, fmt.Errorf("cpu profile: %w", tr.profileErr)
	}
	samples, err := parseProfile(tr.profile.Bytes())
	if err != nil {
		return repSummary{}, fmt.Errorf("cpu profile: %w", err)
	}
	probes, err := runLayerProbes(r.m)
	if err != nil {
		return repSummary{}, err
	}
	sum.Layer = map[string]metric{}
	perLayer(sum.Layer, r, tr, samples, probes)
	base := filepath.Join(out, "trace", fmt.Sprintf("%s-seed%d", w.name, seed))
	if err := tr.write(base+".json", base+".pprof"); err != nil {
		return repSummary{}, err
	}
	return sum, nil
}

// measure runs untraced repetitions, each in a child process, while the
// next one is expected to end within the time budget (half of it when
// tracing), and at least minReps of them; when tracing it then runs one
// traced repetition. It checks every repetition and summarises them.
func measure(w workload, seed uint64, budget time.Duration, traced bool, out string, log io.Writer) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	untracedBudget := budget
	if traced {
		untracedBudget = budget / 2
	}
	var reps []repSummary
	begin := wall.Now()
	for len(reps) < minReps || time.Since(begin)*time.Duration(len(reps)+1)/time.Duration(len(reps)) <= untracedBudget {
		r, err := runChild(exe, w, seed, false, out)
		if err != nil {
			return result{}, err
		}
		reps = append(reps, r)
		logRep(log, len(reps), "", r)
	}
	all := reps
	var tracedRep repSummary
	if traced {
		if tracedRep, err = runChild(exe, w, seed, true, out); err != nil {
			return result{}, err
		}
		all = append(append([]repSummary(nil), reps...), tracedRep)
		logRep(log, len(all), " traced", tracedRep)
	}

	res := result{Metrics: map[string]metric{}}
	ref := all[0].Record
	firstErr := ""
	for i, r := range all {
		res.Attempted += 1 + r.Requests
		res.Failed += r.Failed
		if firstErr == "" {
			firstErr = r.FirstErr
		}
		if r.Record != ref {
			res.Failed++
			if firstErr == "" {
				firstErr = fmt.Sprintf("repetition %d: work %+v differs from repetition 1's %+v", i+1, r.Record, ref)
			}
		}
	}
	if firstErr != "" {
		fmt.Fprintln(log, "first failure:", firstErr)
	}
	res.Correct = res.Failed == 0

	if !traced {
		endToEnd(res.Metrics, reps, log)
		return res, nil
	}
	for k, v := range tracedRep.Layer {
		res.Metrics[k] = v
	}
	var untraced []float64
	for _, r := range reps {
		untraced = append(untraced, r.MeasuredS)
	}
	res.Metrics["trace.overhead"] = metric{tracedRep.MeasuredS / median(untraced), "ratio"}
	fmt.Fprintf(log, "spans and CPU profile written under %s\n", filepath.Join(out, "trace"))
	return res, nil
}

// runChild runs one repetition in a child process and waits for it.
func runChild(exe string, w workload, seed uint64, traced bool, out string) (repSummary, error) {
	ctx, cancel := context.WithTimeout(context.Background(), repTimeout)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "--rep", "--workload", w.name,
		"--seed", strconv.FormatUint(seed, 10), "--trace", trace, "--out", out)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return repSummary{}, fmt.Errorf("%s repetition: %w", w.name, err)
	}
	var sum repSummary
	if err := json.Unmarshal(stdout.Bytes(), &sum); err != nil {
		return repSummary{}, fmt.Errorf("%s repetition output: %w", w.name, err)
	}
	return sum, nil
}

// logRep prints one repetition's work and digest, so a behaviour change
// shows in the log.
func logRep(log io.Writer, n int, tag string, r repSummary) {
	fmt.Fprintf(log, "rep %d%s: setup %.3fs window %.3fs measured %.3fs heap %.1fMB | digest %s services %d->%d pseudo %d ticks %d interro %d probes %d journal %d appends %d bytes | requests %d failed %d\n",
		n, tag, r.SetupS, r.WindowS, r.MeasuredS, r.HeapMB,
		r.Record.Digest, r.Services, r.Record.Services, r.Work.PseudoFlagged, r.Record.Ticks, r.Record.Interrogations,
		r.Record.ProbeTargets, r.Record.JournalAppends, r.Record.JournalBytes,
		r.Requests, r.Failed)
}

// endToEnd fills the untraced metrics. Window and serving times are
// sums of per-step medians across repetitions (see sumOfMedians); the
// other figures are medians over repetitions.
func endToEnd(ms map[string]metric, reps []repSummary, log io.Writer) {
	var steps, blocks [][]time.Duration
	var p50, p99, heap, setup []float64
	requests := 0
	for _, r := range reps {
		steps = append(steps, durations(r.StepsNS))
		blocks = append(blocks, durations(r.BlocksNS))
		p50 = append(p50, r.P50MS)
		p99 = append(p99, r.P99MS)
		heap = append(heap, r.HeapMB)
		setup = append(setup, r.SetupS)
		requests += r.Requests
	}
	window, serving := sumOfMedians(steps), sumOfMedians(blocks)
	work := reps[0].Work // identical in every repetition; checked by the work records
	ms["interro_per_s"] = metric{rate(work.InterroAttempts, window), "1/s"}
	ms["probes_per_s"] = metric{rate(work.LedgerSpent, window), "1/s"}
	ms["serve_rps"] = metric{rate(uint64(len(reps[0].BlocksNS)*blockSize), serving), "1/s"}
	ms["serve_p50_ms"] = metric{median(p50), "ms"}
	ms["serve_p99_ms"] = metric{median(p99), "ms"}
	ms["live_heap_mb"] = metric{median(heap), "MB"}
	ms["setup_s"] = metric{median(setup), "s"}
	fmt.Fprintf(log, "%d repetitions of %d requests each; latency percentiles are medians of per-repetition percentiles (%d samples in all)\n",
		len(reps), reps[0].Requests, requests)
}

// perLayer fills the traced metrics from the traced repetition.
func perLayer(ms map[string]metric, r repResult, tr *tracer, samples []profSample, probes layerProbeResult) {
	w, t := r.work, r.total
	ticks := millis(r.ticks)
	ms["core.tick_ms_p50"] = metric{percentile(ticks, 50), "ms"}
	ms["core.tick_ms_p90"] = metric{percentile(ticks, 90), "ms"}
	ms["core.seed_scan_s"] = metric{r.seedScan.Seconds(), "s"}
	ms["core.services"] = metric{float64(r.record.Services), "count"}
	ms["core.refresh_scans"] = metric{float64(w.RefreshScans), "count"}
	ms["core.pseudo_flagged"] = metric{float64(w.PseudoFlagged), "count"}

	ms["discovery.probes"] = metric{float64(w.DiscoveryProbes), "count"}
	ms["discovery.open_ratio"] = metric{ratio(w.DiscoveryOpen, w.DiscoveryProbes), "ratio"}
	ms["discovery.confirmed_ratio"] = metric{ratio(w.LedgerConfirmed, w.LedgerSpent), "ratio"}
	ms["simnet.probes_seen"] = metric{float64(w.SimnetProbes), "count"}
	ms["simnet.probe_ns"] = metric{probes.probeNS, "ns"}
	ms["predict.probes"] = metric{float64(w.PredictiveProbes), "count"}

	ms["interro.attempts"] = metric{float64(w.InterroAttempts), "count"}
	ms["interro.identified_ratio"] = metric{ratio(w.InterroIdentified, w.InterroAttempts), "ratio"}
	ms["interro.no_contact"] = metric{float64(w.InterroNoContact), "count"}
	ms["interro.call_us"] = metric{probes.callUS, "us"}

	ms["cqrs.observations"] = metric{float64(w.Observations), "count"}
	ms["cqrs.nochange_ratio"] = metric{ratio(w.NoChange, w.Observations), "ratio"}
	ms["journal.appends"] = metric{float64(w.JournalAppends), "count"}
	ms["journal.bytes"] = metric{float64(w.JournalBytes), "B"}
	ms["journal.reads"] = metric{float64(t.JournalReads), "count"}

	ms["search.cache_hit_ratio"] = metric{ratio(t.CacheHits, t.CacheHits+t.CacheMisses), "ratio"}
	ms["search.cache_misses"] = metric{float64(t.CacheMisses), "count"}
	ms["search.count_us"] = metric{probes.countUS, "us"}

	for _, class := range []string{"lookup", "search", "export"} {
		lat := millis(r.serve.lat[class])
		ms["serve."+class+"_ms_p50"] = metric{percentile(lat, 50), "ms"}
		ms["serve."+class+"_ms_p99"] = metric{percentile(lat, 99), "ms"}
	}

	ms["runtime.cpu_s"] = metric{tr.cpu.Seconds(), "s"}
	ms["runtime.wall_s"] = metric{r.measured.Seconds(), "s"}
	ms["runtime.alloc_mb"] = metric{float64(tr.mem1.TotalAlloc-tr.mem0.TotalAlloc) / 1e6, "MB"}
	ms["runtime.gc_cycles"] = metric{float64(tr.mem1.NumGC - tr.mem0.NumGC), "count"}
	shares, n := attribute(samples)
	for _, b := range cpuBuckets {
		ms["cpu."+b] = metric{shares[b], "%"}
	}
	ms["cpu.samples"] = metric{float64(n), "count"}
}
