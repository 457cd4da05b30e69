package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"
)

// span is one timed call the benchmark made into the program. Cause names
// the span that led to it (0 for a root), so a tick triggered by a request
// points at that request. Delta is the change of every layer's counters
// over the span, where the span read them.
type span struct {
	ID      int       `json:"id"`
	Cause   int       `json:"cause"`
	Name    string    `json:"name"`
	StartNS int64     `json:"start_ns"`
	EndNS   int64     `json:"end_ns"`
	Status  int       `json:"status,omitempty"`
	Delta   *counters `json:"delta,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced repetitions run.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span

	// The measured phase (window and serving) of the traced repetition:
	// its CPU profile, process CPU time, and allocation counters.
	profile    bytes.Buffer
	profileErr error
	cpu        time.Duration
	mem0, mem1 runtime.MemStats
}

func newTracer() *tracer { return &tracer{origin: wall.Now()} }

// record stores a finished span and returns its ID (0 when untraced).
func (t *tracer) record(name string, cause int, start, end time.Time, status int, delta *counters) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Cause: cause, Name: name,
		StartNS: start.Sub(t.origin).Nanoseconds(), EndNS: end.Sub(t.origin).Nanoseconds(),
		Status: status, Delta: delta})
	return id
}

// reserve hands out an ID for a span whose children are recorded before it
// ends (a window or a setup phase); finish fills it in.
func (t *tracer) reserve() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1})
	return len(t.spans)
}

func (t *tracer) finish(id int, name string, cause int, start, end time.Time, delta *counters) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1] = span{ID: id, Cause: cause, Name: name,
		StartNS: start.Sub(t.origin).Nanoseconds(), EndNS: end.Sub(t.origin).Nanoseconds(),
		Delta: delta}
}

// beginMeasure starts the CPU profile and reads the process counters at
// the start of the measured phase.
func (t *tracer) beginMeasure() {
	if t == nil {
		return
	}
	runtime.ReadMemStats(&t.mem0)
	t.cpu = -processCPU()
	t.profileErr = pprof.StartCPUProfile(&t.profile)
}

// endMeasure stops the profile and reads the counters again.
func (t *tracer) endMeasure() {
	if t == nil {
		return
	}
	if t.profileErr == nil {
		pprof.StopCPUProfile()
	}
	t.cpu += processCPU()
	runtime.ReadMemStats(&t.mem1)
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// write saves every span as one JSON document at spansPath and the CPU
// profile at profilePath.
func (t *tracer) write(spansPath, profilePath string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	blob, err := json.Marshal(t.spans)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(spansPath, blob, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(profilePath, t.profile.Bytes(), 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
