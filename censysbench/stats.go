package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank method: the smallest value with at least p% of the samples
// at or below it. xs need not be sorted and is not modified. It returns 0
// for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the middle value of xs, averaging the two middle values of an
// even-length sample. It returns 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// rate is work units per second of wall time, 0 when no time elapsed.
func rate(work uint64, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(work) / wall.Seconds()
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// sumOfMedians estimates the undisturbed duration of a sequence of steps
// that every repetition runs identically: the sum over steps of the
// step's median duration across repetitions. A stall that hits one step
// of one repetition then moves the estimate only as far as it moves that
// step's median. Repetitions with fewer steps contribute to the steps they
// have.
func sumOfMedians(reps [][]time.Duration) time.Duration {
	var total float64
	for i := 0; ; i++ {
		var col []float64
		for _, r := range reps {
			if i < len(r) {
				col = append(col, float64(r[i]))
			}
		}
		if len(col) == 0 {
			return time.Duration(total)
		}
		total += median(col)
	}
}
