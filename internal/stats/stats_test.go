package stats

import (
	"math"
	"testing"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("mean = %v", got)
	}
}

func TestLogLogSlopeRecoversExponent(t *testing.T) {
	for _, alpha := range []float64{0.5, 1, 2} {
		var xs, ys []float64
		for _, x := range []float64{2, 4, 8, 16, 32} {
			xs = append(xs, x)
			ys = append(ys, 3*math.Pow(x, alpha))
		}
		if got := LogLogSlope(xs, ys); math.Abs(got-alpha) > 1e-9 {
			t.Fatalf("slope = %v, want %v", got, alpha)
		}
	}
}

func TestLogLogSlopePanics(t *testing.T) {
	for _, f := range []func(){
		func() { LogLogSlope([]float64{1}, []float64{1}) },
		func() { LogLogSlope([]float64{1, 2}, []float64{1, -2}) },
		func() { LogLogSlope([]float64{2, 2}, []float64{1, 3}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}
