package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {100, 10}, {10, 1}, {1, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestSamplesBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{100, 90, 10, true},  // exactly ten beyond p90
		{99, 90, 9, false},   // one short
		{200, 90, 20, true},  // the issue's ">=200 ops" floor
		{200, 99, 2, false},  // why p99 gates nothing
		{1000, 99, 10, true}, // p99 needs a thousand
		{0, 90, 0, false},
	} {
		if got := samplesBeyond(c.n, c.p); got != c.beyond {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", c.n, c.p, got, c.beyond)
		}
		if got := samplesBeyond(c.n, c.p) >= minBeyond; got != c.ok {
			t.Errorf("%d samples carry p%v: %v, want %v", c.n, c.p, got, c.ok)
		}
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 1..3 = %v, want 2", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of 1,2 = %v, %v, want 0.75, 2.25", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread of 1..10 = %v, want 1", got)
	}
}

func TestRatioNeverNaN(t *testing.T) {
	for _, got := range []float64{ratio(1, 0), ratio(0, 0), ratio(math.NaN(), 1), ratio(1, math.Inf(1)), ratio(math.Inf(1), 2)} {
		if got != 0 {
			t.Errorf("guarded ratio = %v, want 0", got)
		}
	}
	if got := ratio(1, 4); got != 0.25 {
		t.Errorf("ratio(1,4) = %v", got)
	}
}

func TestSummarize(t *testing.T) {
	// 100 ops over one second: 80 of 10 ms, 20 of 40 ms.
	var lat []time.Duration
	for i := 0; i < 100; i++ {
		d := 10 * time.Millisecond
		if i%5 == 4 {
			d = 40 * time.Millisecond
		}
		lat = append(lat, d)
	}
	st := summarize(lat, time.Second)
	if st.ops != 100 || st.throughput != 100 || st.p50 != 10 || st.p90 != 40 || st.p99 != 40 {
		t.Errorf("summarize = %+v, want 100 ops, 100 ops/s, p50 10, p90 40, p99 40", st)
	}
	if st := summarize(nil, time.Second); st.throughput != 0 || st.p50 != 0 {
		t.Errorf("summarize of nothing = %+v", st)
	}
}
