package main

import (
	"math"
	"testing"
)

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.1, 1}, {0.01, 1},
	} {
		if got := percentile(xs, c.q); !approx(got, c.want) {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !approx(xs[0], 5) {
		t.Errorf("percentile sorted its input in place")
	}
	if got := percentile(nil, 0.5); !approx(got, 0) {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
	// p99 of 1000 samples leaves ten samples above it.
	var big []float64
	for i := 1; i <= 1000; i++ {
		big = append(big, float64(i))
	}
	if got := percentile(big, 0.99); !approx(got, 990) {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}

func TestMedianAndMean(t *testing.T) {
	if got := median([]float64{3, 1, 2}); !approx(got, 2) {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); !approx(got, 2.5) {
		t.Errorf("median even = %v", got)
	}
	if got := mean([]float64{1, 2, 6}); !approx(got, 3) {
		t.Errorf("mean = %v", got)
	}
	if got := median(nil) + mean(nil); !approx(got, 0) {
		t.Errorf("empty median+mean = %v", got)
	}
}
