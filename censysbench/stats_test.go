package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, tc := range []struct {
		p    float64
		want float64
	}{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {99, 50}, {100, 50},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	// p99 of 1..1000 is the 990th value: ten samples lie beyond it.
	var big []float64
	for i := 1000; i >= 1; i-- {
		big = append(big, float64(i))
	}
	if got := percentile(big, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if big[0] != 1000 {
		t.Error("percentile reordered its input")
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0}, {[]float64{3}, 3}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestRateAndRatio(t *testing.T) {
	if got := rate(3000, 1500*time.Millisecond); got != 2000 {
		t.Errorf("rate = %v, want 2000", got)
	}
	if got := rate(10, 0); got != 0 {
		t.Errorf("rate over no time = %v, want 0", got)
	}
	if got := ratio(1, 4); got != 0.25 {
		t.Errorf("ratio = %v, want 0.25", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio over zero = %v, want 0", got)
	}
	if got := millis([]time.Duration{1500 * time.Microsecond}); got[0] != 1.5 {
		t.Errorf("millis = %v, want [1.5]", got)
	}
}

func TestCountersSub(t *testing.T) {
	a := counters{InterroAttempts: 10, LedgerSpent: 100, PseudoFlagged: 3, CacheMisses: 2}
	b := counters{InterroAttempts: 25, LedgerSpent: 180, PseudoFlagged: 7, CacheMisses: 5}
	d := b.sub(a)
	if d.InterroAttempts != 15 || d.LedgerSpent != 80 || d.CacheMisses != 3 {
		t.Errorf("sub = %+v", d)
	}
	if d.PseudoFlagged != 7 {
		t.Errorf("PseudoFlagged is a level: got %d, want the later reading 7", d.PseudoFlagged)
	}
}

func TestSumOfMedians(t *testing.T) {
	ms := time.Millisecond
	reps := [][]time.Duration{
		{10 * ms, 20 * ms, 30 * ms},
		{11 * ms, 90 * ms, 29 * ms}, // a stall in step 2
		{9 * ms, 21 * ms, 31 * ms},
	}
	if got, want := sumOfMedians(reps), 10*ms+21*ms+30*ms; got != want {
		t.Errorf("sumOfMedians = %v, want %v", got, want)
	}
	if got := sumOfMedians(nil); got != 0 {
		t.Errorf("sumOfMedians(nil) = %v, want 0", got)
	}
	if got, want := sumOfMedians([][]time.Duration{{4 * ms}, {6 * ms, 5 * ms}}), 10*ms; got != want {
		t.Errorf("ragged sumOfMedians = %v, want %v", got, want)
	}
}
