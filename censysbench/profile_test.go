package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"censysmap/internal/core.(*Map).Tick.func1":       "censysmap/internal/core",
		"censysmap/internal/search.mergeSortedStrings":    "censysmap/internal/search",
		"censysmap.(*System).Run":                         "censysmap",
		"main.serveClosedLoop.func1":                      "main",
		"encoding/json.(*decodeState).skip":               "encoding/json",
		"runtime.gcBgMarkWorker":                          "runtime",
		"censysmap/internal/x509lite.Parse[...]":          "censysmap/internal/x509lite",
		"gopkg.in/yaml%2ev3.(*parser).parse":              "gopkg.in/yaml%2ev3",
		"censysmap/internal/discovery.(*Engine).Tick-fm":  "censysmap/internal/discovery",
		"censysmap/internal/protocols.init.func3.1":       "censysmap/internal/protocols",
		"censysmap/internal/telemetry.(*Counter).Inc":     "censysmap/internal/telemetry",
		"censysmap/internal/simnet.(*Internet).ProbeTCP":  "censysmap/internal/simnet",
		"censysmap/internal/journal.(*Store).Append":      "censysmap/internal/journal",
		"censysmap/internal/interro.(*Interrogator).call": "censysmap/internal/interro",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string // innermost first
		want  string
	}{
		// The innermost censysmap frame wins over library frames below it.
		{[]string{"encoding/json.appendCompact", "censysmap/internal/lookup.writeJSON",
			"censysmap/internal/serve.(*Server).ServeHTTP", "main.serveClosedLoop.func1"}, "lookup"},
		{[]string{"runtime.mallocgc", "censysmap/internal/simnet.(*Internet).ProbeTCP",
			"censysmap/internal/discovery.(*Engine).Tick"}, "simnet"},
		// GC background workers go to gc even with no censysmap frame.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime._GC"}, "gc"},
		// The benchmark's own frames are the harness.
		{[]string{"encoding/json.checkValid", "encoding/json.Valid", "main.checkResponse"}, "harness"},
		{[]string{"censysmap.NewSystem"}, "facade"},
		// No censysmap frame, or a package without a bucket: other.
		{[]string{"runtime.futex", "runtime.notesleep"}, "other"},
		{[]string{"censysmap/internal/durable.Load"}, "other"},
		{nil, "other"},
	} {
		if got := bucketOf(tc.stack); got != tc.want {
			t.Errorf("bucketOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

func TestAttributeSumsTo100(t *testing.T) {
	shares, n := attribute([]profSample{
		{count: 3, stack: []string{"censysmap/internal/core.(*Map).Tick"}},
		{count: 1, stack: []string{"runtime.gcBgMarkWorker"}},
	})
	if n != 4 {
		t.Fatalf("samples = %d, want 4", n)
	}
	if shares["core"] != 75 || shares["gc"] != 25 {
		t.Errorf("shares = %v", shares)
	}
	if len(shares) != len(cpuBuckets) {
		t.Errorf("%d shares, want one per bucket (%d)", len(shares), len(cpuBuckets))
	}
	empty, _ := attribute(nil)
	if empty["other"] != 0 {
		t.Errorf("empty profile shares = %v", empty)
	}
}

// protobuf encoding helpers for a hand-built profile.
func pbVarint(field int, v uint64) []byte {
	b := binary.AppendUvarint(nil, uint64(field)<<3)
	return binary.AppendUvarint(b, v)
}

func pbBytes(field int, payload []byte) []byte {
	b := binary.AppendUvarint(nil, uint64(field)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	return append(b, payload...)
}

func pbPacked(field int, vs ...uint64) []byte {
	var payload []byte
	for _, v := range vs {
		payload = binary.AppendUvarint(payload, v)
	}
	return pbBytes(field, payload)
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

func TestParseProfileHandBuilt(t *testing.T) {
	// Strings: 0 "", 1 samples, 2 count, 3..5 function names.
	strs := []string{"", "samples", "count",
		"censysmap/internal/protocols.parseBanner",
		"censysmap/internal/interro.(*Interrogator).Interrogate",
		"runtime.gcBgMarkWorker"}
	var msg []byte
	msg = append(msg, pbBytes(1, cat(pbVarint(1, 1), pbVarint(2, 2)))...) // sample_type
	// Sample 1: packed ids and values; location 1 holds an inlined frame
	// (function 1 inlined into function 2), so the stack is both.
	msg = append(msg, pbBytes(2, cat(pbPacked(1, 1), pbPacked(2, 5, 50000000)))...)
	// Sample 2: unpacked location id and values.
	msg = append(msg, pbBytes(2, cat(pbVarint(1, 2), pbVarint(2, 2), pbVarint(2, 20000000)))...)
	msg = append(msg, pbBytes(4, cat(pbVarint(1, 1), pbVarint(3, 0x1234),
		pbBytes(4, cat(pbVarint(1, 1), pbVarint(2, 10))),
		pbBytes(4, cat(pbVarint(1, 2), pbVarint(2, 20)))))...)
	msg = append(msg, pbBytes(4, cat(pbVarint(1, 2), pbBytes(4, pbVarint(1, 3))))...)
	for id, name := range []int64{3, 4, 5} {
		msg = append(msg, pbBytes(5, cat(pbVarint(1, uint64(id+1)), pbVarint(2, uint64(name))))...)
	}
	for _, s := range strs {
		msg = append(msg, pbBytes(6, []byte(s))...)
	}
	// A fixed64 field (time_nanos is a varint in practice; this exercises
	// the skip path) must be ignored.
	msg = append(msg, binary.AppendUvarint(nil, 9<<3|1)...)
	msg = append(msg, 0, 0, 0, 0, 0, 0, 0, 0)

	samples, err := parseProfile(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("%d samples, want 2", len(samples))
	}
	if samples[0].count != 5 || len(samples[0].stack) != 2 ||
		samples[0].stack[0] != strs[3] || samples[0].stack[1] != strs[4] {
		t.Errorf("sample 0 = %+v", samples[0])
	}
	if samples[1].count != 2 || len(samples[1].stack) != 1 || samples[1].stack[0] != strs[5] {
		t.Errorf("sample 1 = %+v", samples[1])
	}
	shares, _ := attribute(samples)
	if math.Abs(shares["protocols"]-500.0/7) > 1e-9 || math.Abs(shares["gc"]-200.0/7) > 1e-9 {
		t.Errorf("shares = protocols %v gc %v", shares["protocols"], shares["gc"])
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	for _, blob := range [][]byte{
		{0x0a, 0x05, 0x01},       // length past the end
		{0x80},                   // truncated key
		{0x0b},                   // wire type 3
		{0x1f, 0x8b, 0x00, 0x00}, // gzip header cut short
	} {
		if _, err := parseProfile(blob); err == nil {
			t.Errorf("parseProfile(%x) accepted garbage", blob)
		}
	}
}

//go:noinline
func burn(d time.Duration) float64 {
	x := 1.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	return x
}

var sink float64

// TestParseRuntimeProfile decodes a profile written by runtime/pprof and
// finds the CPU this test burned charged to the harness.
func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	sink = burn(400 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	shares, n := attribute(samples)
	if n < 10 {
		t.Fatalf("only %d samples in 400ms of CPU", n)
	}
	sum := 0.0
	for _, b := range cpuBuckets {
		sum += shares[b]
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v, want 100", sum)
	}
	if shares["harness"] < 50 {
		t.Errorf("harness share %v%%, want most of the samples (shares %v)", shares["harness"], shares)
	}
}
