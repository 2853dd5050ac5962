package sim

import (
	"math"
	"sort"
	"testing"

	"repro/internal/tensor"
)

func TestPoissonArrivalsStatistics(t *testing.T) {
	g := tensor.NewRNG(1)
	rate := 4.0
	n := 20000
	arr := PoissonArrivals(g, rate, n)
	if !sort.Float64sAreSorted(arr) {
		t.Fatal("arrivals must be increasing")
	}
	// Mean inter-arrival ≈ 1/rate.
	mean := arr[n-1] / float64(n)
	if math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("mean inter-arrival %v want %v", mean, 1/rate)
	}
}

func TestPoissonDeterministic(t *testing.T) {
	a := PoissonArrivals(tensor.NewRNG(7), 2, 100)
	b := PoissonArrivals(tensor.NewRNG(7), 2, 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give same arrivals")
		}
	}
}

func TestPoissonPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PoissonArrivals(tensor.NewRNG(1), 0, 1)
}

func TestZipfSkew(t *testing.T) {
	g := tensor.NewRNG(3)
	n := 100
	counts := make([]int, n)
	for i := 0; i < 50000; i++ {
		counts[Zipf(g, n, 0.9)]++
	}
	// Heavy head: the most popular decile should hold well over 10%.
	head := 0
	for _, c := range counts[:10] {
		head += c
	}
	if head < 15000 {
		t.Fatalf("Zipf head too light: %d/50000", head)
	}
	// Uniform when s=0.
	counts0 := make([]int, n)
	for i := 0; i < 50000; i++ {
		counts0[Zipf(g, n, 0)]++
	}
	for _, c := range counts0 {
		if c < 200 || c > 900 {
			t.Fatalf("uniform mode too skewed: %d", c)
		}
	}
}

func TestZipfBounds(t *testing.T) {
	g := tensor.NewRNG(4)
	for i := 0; i < 1000; i++ {
		v := Zipf(g, 7, 1.2)
		if v < 0 || v >= 7 {
			t.Fatalf("Zipf out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Zipf(g, 0, 1)
}
