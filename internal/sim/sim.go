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
