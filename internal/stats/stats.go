// Package stats provides the small numeric helpers the experiment harness
// reports with (means, and log-log fits for scaling checks).
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// LogLogSlope fits y ≈ c·x^α by least squares on (ln x, ln y) and returns
// the exponent α — the scaling-law check used to compare measured
// discrepancies against the theorems' growth rates. All inputs must be
// positive; it panics otherwise or on mismatched/short input.
func LogLogSlope(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		panic(fmt.Sprintf("stats: need ≥2 paired points, got %d/%d", len(xs), len(ys)))
	}
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			panic(fmt.Sprintf("stats: log-log fit needs positive data, got (%v,%v)", xs[i], ys[i]))
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	mx, my := Mean(lx), Mean(ly)
	num, den := 0.0, 0.0
	for i := range lx {
		num += (lx[i] - mx) * (ly[i] - my)
		den += (lx[i] - mx) * (lx[i] - mx)
	}
	if den == 0 {
		panic("stats: degenerate x values in log-log fit")
	}
	return num / den
}
