// Package sim provides the discrete-event simulation core used by the
// serving experiments: a virtual-time event queue and Poisson arrival
// generation. Virtual time lets the reproduction measure TTFT and
// throughput of GPU-scale serving configurations (Figure 14) without the
// paper's A40 testbed.
package sim

import (
	"math"

	"repro/internal/tensor"
)

// event is a scheduled wakeup of one task.
type event struct {
	at   float64
	seq  int // tiebreaker for deterministic ordering
	task Task
}

// before orders events by (at, seq). seq is unique per clock, so this is
// a total order: any correct heap pops the identical sequence.
func (ev event) before(other event) bool {
	if ev.at != other.at {
		return ev.at < other.at
	}
	return ev.seq < other.seq
}

// eventHeap is a concrete binary min-heap on (at, seq). Typed push/pop
// avoid the interface{} boxing of container/heap on every event.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].before(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s[n] = event{} // release the task reference in the dead slot
	s = s[:n]
	*h = s
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && s[r].before(s[l]) {
			least = r
		}
		if !s[least].before(s[i]) {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	return top
}

// PoissonArrivals returns n arrival times of a Poisson process with the
// given rate (events/second), deterministically from g.
func PoissonArrivals(g *tensor.RNG, rate float64, n int) []float64 {
	if rate <= 0 {
		panic("sim: non-positive arrival rate")
	}
	out := make([]float64, n)
	t := 0.0
	for i := 0; i < n; i++ {
		u := g.Float64()
		if u <= 0 {
			u = 1e-12
		}
		t += -math.Log(u) / rate
		out[i] = t
	}
	return out
}

// Zipf draws an index in [0, n) with a skewed popularity distribution
// (exponent s ≥ 0; s=0 is uniform), deterministically from g. It models
// chunk reuse: a few context chunks are requested far more often than the
// tail, which is what makes KV caches worth storing.
func Zipf(g *tensor.RNG, n int, s float64) int {
	if n <= 0 {
		panic("sim: Zipf over empty domain")
	}
	if s <= 0 {
		return g.Intn(n)
	}
	// Inverse-CDF on the continuous approximation: x ∝ u^(1/(1-s)) for
	// s<1; for s≥1 fall back to a simple power skew.
	u := g.Float64()
	exp := 1.0
	if s < 1 {
		exp = 1 / (1 - s)
	} else {
		exp = 1 + s
	}
	return zipfIndex(u, n, exp)
}

// zipfIndex maps a uniform draw u in [0, 1) to int(math.Pow(u, exp)·n),
// clamped to n−1, without calling math.Pow where it can prove the same
// index.
//
// The exponents in use sit within rounding of small integers: s = 0.8
// gives 1/(1−0.8) = 5.000000000000001, s = 0.9 gives 10.000000000000002
// and s = 1 gives exactly 2, and for a fraction as small as 8.9e-16
// math.Pow still pays for an Exp and a Log. So when exp lies within
// 1e-12 of an integer k in [1, 16], u^k is multiplied out instead. The
// two products differ by the factor u^(exp−k) = e^((exp−k)·ln u) and a
// few ulps of rounding on each side: k−1 multiplications here, and
// math.Pow's own error. math/rand's Float64 returns 0 or at least
// 2^-63, so |ln u| ≤ 43.7 and the factor is within 4.4e-11 of 1. A u^k·n
// farther than a relative 1e-9 from every integer therefore truncates to
// the index math.Pow gives; nearer ones, and u = 0, call math.Pow. The
// margin holds for every positive double, whose |ln u| < 745 keeps the
// factor within 7.5e-10 of 1, and a u^k that underflows leaves u^k·n
// far below 1 on both paths.
func zipfIndex(u float64, n int, exp float64) int {
	if k := math.Round(exp); u > 0 && k >= 1 && k <= 16 && math.Abs(exp-k) <= 1e-12 {
		p := u
		for i := 1; i < int(k); i++ {
			p *= u
		}
		x := p * float64(n)
		if f := math.Floor(x); x-f > 1e-9*x && f+1-x > 1e-9*x {
			return min(int(f), n-1)
		}
	}
	idx := int(math.Pow(u, exp) * float64(n))
	if idx >= n {
		idx = n - 1
	}
	return idx
}
