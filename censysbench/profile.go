package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profiles runtime/pprof writes (gzipped
// profile.proto) and attributes every sample to one layer. Only the fields
// attribution needs are decoded: samples, locations, functions and the
// string table.

// cpuBuckets are the layers a CPU sample can be attributed to: the
// internal packages the workloads reach, the censysmap facade, the
// benchmark's own code, GC background work, and everything else.
var cpuBuckets = []string{
	"core", "discovery", "simnet", "predict", "interro", "protocols",
	"cqrs", "journal", "search", "serve", "lookup", "telemetry",
	"enrich", "entity", "webprop", "x509lite", "fingerdsl", "snapshot",
	"shard", "simclock", "cyclic", "facade", "harness", "gc", "other",
}

// profSample is one decoded sample: its weight (sample count) and its
// stack as function names, innermost first (inlined frames included).
type profSample struct {
	count int64
	stack []string
}

// gcWorkers are the runtime's GC background goroutine entry points.
var gcWorkers = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime._GC":            true,
}

// packageOf returns the import path of a fully qualified Go function name
// such as "censysmap/internal/core.(*Map).Tick.func1".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// bucketOf names the layer a stack is charged to. GC background workers go
// to "gc". Otherwise the innermost frame in a censysmap package, or in the
// benchmark itself, decides. A stack with no such frame, or whose deciding
// package has no bucket of its own, goes to "other".
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if gcWorkers[fn] {
			return "gc"
		}
	}
	for _, fn := range stack {
		pkg := packageOf(fn)
		switch {
		case pkg == "censysmap":
			return "facade"
		case pkg == "main", pkg == "censysmap/censysbench": // the benchmark, built or under test
			return "harness"
		case strings.HasPrefix(pkg, "censysmap/internal/"):
			name := strings.TrimPrefix(pkg, "censysmap/internal/")
			for _, b := range cpuBuckets {
				if b == name {
					return b
				}
			}
			return "other"
		}
	}
	return "other"
}

// attribute returns each bucket's share of the samples in percent. Every
// bucket in cpuBuckets is present, and the shares sum to 100 whenever
// there is at least one sample.
func attribute(samples []profSample) (map[string]float64, int64) {
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		counts[bucketOf(s.stack)] += s.count
		total += s.count
	}
	out := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		if total > 0 {
			out[b] = 100 * float64(counts[b]) / float64(total)
		} else {
			out[b] = 0
		}
	}
	return out, total
}

// parseProfile decodes a gzipped (or raw) profile.proto into samples.
func parseProfile(data []byte) ([]profSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]int64{}    // function id -> name string index
		strs    []string
	)
	err := eachField(data, func(field int, wire int, v uint64, b []byte) error {
		switch {
		case field == 2 && wire == 2: // Sample
			var s rawSample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					s.values = appendVarints(s.values, w, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case field == 4 && wire == 2: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch {
				case f == 1 && w == 0:
					id = v
				case f == 4 && w == 2: // Line
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 && w == 0 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case field == 5 && wire == 2: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch {
				case f == 1 && w == 0:
					id = v
				case f == 2 && w == 0:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case field == 6 && wire == 2: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errors.New("profile: sample without values")
		}
		ps := profSample{count: int64(s.values[0])}
		for _, lid := range s.locs {
			for _, fid := range locs[lid] {
				idx := funcs[fid]
				if idx < 0 || idx >= int64(len(strs)) {
					return nil, fmt.Errorf("profile: function name index %d out of range", idx)
				}
				ps.stack = append(ps.stack, strs[idx])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// appendVarints appends one repeated-varint field occurrence, packed
// (wire type 2) or not (wire type 0).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and either its varint value (wire 0) or its bytes
// (wire 2). Fixed-width fields are skipped.
func eachField(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
