package main

import (
	"math"
	"testing"
)

func TestPercentileCeilRank(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1} // unsorted on purpose
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0, 1},     // rank clamps to 1
		{0.1, 1},   // ceil(1.0) = 1
		{0.11, 2},  // ceil(1.1) = 2
		{0.5, 5},   // ceil(5.0) = 5: the lower middle, not an average
		{0.9, 9},   // ceil(9.0) = 9
		{0.99, 10}, // ceil(9.9) = 10
		{1, 10},
	} {
		if got := percentile(ten, tc.q); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if ten[0] != 10 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile(single) = %v, want 7", got)
	}
	// Three set-ups: the median is the middle one.
	if got := percentile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
}

func TestHistQuantile(t *testing.T) {
	uppers := []float64{1, 2, 4}
	cum := []float64{0, 10, 20, 20} // 10 in (1,2], 10 in (2,4], none above
	if got := histQuantile(uppers, cum, 0.5); got != 2 {
		t.Errorf("p50 = %v, want 2", got)
	}
	if got := histQuantile(uppers, cum, 0.75); math.Abs(got-3) > 1e-9 {
		t.Errorf("p75 = %v, want 3 (halfway through (2,4])", got)
	}
	if got := histQuantile(uppers, []float64{0, 0, 0, 5}, 0.5); got != 4 {
		t.Errorf("+Inf bucket quantile = %v, want largest finite bound 4", got)
	}
	if got := histQuantile(uppers, []float64{0, 0, 0, 0}, 0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
}

func TestParseExpositionAndHistogram(t *testing.T) {
	text := []byte(`# HELP x_seconds help
# TYPE x_seconds histogram
x_seconds_bucket{le="0.1"} 0
x_seconds_bucket{le="1"} 4
x_seconds_bucket{le="+Inf"} 4
x_seconds_sum 2
x_seconds_count 4
# TYPE y_total counter
y_total 7
`)
	s := parseExposition(text)
	if s["y_total"] != 7 || s["x_seconds_count"] != 4 {
		t.Fatalf("parsed %v", s)
	}
	if got := histogramQuantile(s, "x_seconds", 0.5); math.Abs(got-0.55) > 1e-9 {
		t.Errorf("histogram p50 = %v, want 0.55", got)
	}
}
