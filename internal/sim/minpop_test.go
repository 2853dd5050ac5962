package sim

import (
	"testing"
)

// TestRingRemoveAtPreservesOrder removes interior items across wrap
// boundaries and checks the survivors keep their relative order.
func TestRingRemoveAtPreservesOrder(t *testing.T) {
	var r ring[int]
	// Force a wrapped layout: fill, drain half, refill past the seam.
	for i := 0; i < 8; i++ {
		r.push(i)
	}
	for i := 0; i < 4; i++ {
		r.pop()
	}
	for i := 8; i < 12; i++ {
		r.push(i)
	}
	// Queue is now 4..11 with head past the physical midpoint.
	if got := r.removeAt(3); got != 7 {
		t.Fatalf("removeAt(3) = %d, want 7", got)
	}
	if got := r.removeAt(0); got != 4 {
		t.Fatalf("removeAt(0) = %d, want 4", got)
	}
	want := []int{5, 6, 8, 9, 10, 11}
	if r.len() != len(want) {
		t.Fatalf("len %d, want %d", r.len(), len(want))
	}
	for i, w := range want {
		if got := r.at(i); got != w {
			t.Fatalf("at(%d) = %d, want %d", i, got, w)
		}
	}
	for _, w := range want {
		if got := r.pop(); got != w {
			t.Fatalf("pop = %d, want %d", got, w)
		}
	}
}

// TestQueueTryPopMin checks min extraction and the first-wins tie rule:
// equal keys must come out in push order, so a constant-false less
// degrades TryPopMin to exact FIFO.
func TestQueueTryPopMin(t *testing.T) {
	c := NewClock()
	q := NewQueue[int](c)
	less := func(a, b int) bool { return a < b }
	if _, ok := q.TryPopMin(less); ok {
		t.Fatal("TryPopMin on empty queue returned ok")
	}
	for _, v := range []int{5, 2, 8, 2, 1, 9} {
		q.Push(v)
	}
	for _, want := range []int{1, 2, 2, 5, 8, 9} {
		got, ok := q.TryPopMin(less)
		if !ok || got != want {
			t.Fatalf("TryPopMin = %d,%v, want %d", got, ok, want)
		}
	}
	// Ties keep push order: with a never-true less the queue is pure FIFO.
	for _, v := range []int{3, 1, 4, 1, 5} {
		q.Push(v)
	}
	never := func(a, b int) bool { return false }
	for _, want := range []int{3, 1, 4, 1, 5} {
		got, ok := q.TryPopMin(never)
		if !ok || got != want {
			t.Fatalf("FIFO-degenerate TryPopMin = %d,%v, want %d", got, ok, want)
		}
	}
}

// minDrainer is a priority consumer task: it takes the minimum with
// TryPopMin and parks with Wait when the queue runs empty.
type minDrainer struct {
	q      *Queue[int]
	got    []int
	closed bool
}

func (m *minDrainer) Run(float64) {
	for {
		v, ok := m.q.TryPopMin(func(a, b int) bool { return a < b })
		if ok {
			m.got = append(m.got, v)
			continue
		}
		if m.q.Closed() {
			m.closed = true
			return
		}
		m.q.Wait(m)
		return
	}
}

// TestQueuePopMinBlocksAndDrains checks the parking min-pop: a consumer
// waiting on an empty queue wakes on push, takes the minimum of whatever
// is queued by then, and sees the end once the queue closes empty.
func TestQueuePopMinBlocksAndDrains(t *testing.T) {
	c := NewClock()
	q := NewQueue[int](c)
	m := &minDrainer{q: q}
	c.Wake(0, m)
	c.Go("producer", func(p *Proc) {
		p.Sleep(1)
		// The consumer is parked; pushing wakes it at t=1 after all three
		// pushes land (wake events run after this process yields), so it
		// drains in min order.
		q.Push(7)
		q.Push(3)
		q.Push(5)
		p.Sleep(1)
		q.Close()
	})
	c.Run()
	if !m.closed {
		t.Fatal("consumer never saw the queue close")
	}
	// The first wake pops the min of the full backlog {7,3,5}; subsequent
	// iterations drain the rest in min order without parking.
	want := []int{3, 5, 7}
	if len(m.got) != len(want) {
		t.Fatalf("drained %v, want %v", m.got, want)
	}
	for i := range want {
		if m.got[i] != want[i] {
			t.Fatalf("drained %v, want %v", m.got, want)
		}
	}
}
