package sim

// The heap-only Clock as it was before the one-event slot, kept verbatim
// apart from its names: Wake, Run and Proc.SleepUntil's fast path, with
// the Queue and Proc pieces a program drives them through. Every wake
// goes through the heap. FuzzClockOrder runs each program on it and on
// Clock, and requires the same run.

import "fmt"

type refClock struct {
	now     float64
	seq     int
	heap    eventHeap
	parked  int
	yielded chan struct{}
}

func newRefClock() *refClock {
	return &refClock{yielded: make(chan struct{})}
}

func (c *refClock) Now() float64 { return c.now }

func (c *refClock) Wake(t float64, task Task) {
	if t < c.now {
		t = c.now
	}
	c.seq++
	c.heap.push(event{at: t, seq: c.seq, task: task})
}

func (c *refClock) Run() float64 {
	for len(c.heap) > 0 {
		ev := c.heap.pop()
		c.now = ev.at
		ev.task.Run(c.now)
	}
	if c.parked > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d task(s) blocked at t=%.3f with no pending events", c.parked, c.now))
	}
	return c.now
}

type refProc struct {
	c    *refClock
	wake chan struct{}
}

func (c *refClock) Go(fn func(p *refProc)) {
	p := &refProc{c: c, wake: make(chan struct{})}
	go func() {
		<-p.wake
		fn(p)
		c.yielded <- struct{}{}
	}()
	c.Wake(c.now, p)
}

func (p *refProc) Run(float64) {
	p.wake <- struct{}{}
	<-p.c.yielded
}

func (p *refProc) park() {
	p.c.yielded <- struct{}{}
	<-p.wake
}

func (p *refProc) SleepUntil(t float64) {
	c := p.c
	if t < c.now {
		t = c.now
	}
	if len(c.heap) == 0 || t < c.heap[0].at {
		c.now = t
		return
	}
	c.Wake(t, p)
	p.park()
}

type refQueue struct {
	c       *refClock
	items   ring[int]
	waiters ring[Task]
	closed  bool
}

func (q *refQueue) Push(v int) {
	if q.closed {
		panic("sim: push on closed queue")
	}
	q.items.push(v)
	q.wakeOne()
}

func (q *refQueue) Closed() bool { return q.closed }

func (q *refQueue) Close() {
	q.closed = true
	for q.waiters.len() > 0 {
		q.wakeOne()
	}
}

func (q *refQueue) Wait(task Task) {
	q.waiters.push(task)
	q.c.parked++
}

func (q *refQueue) wakeOne() {
	if q.waiters.len() == 0 {
		return
	}
	q.c.parked--
	q.c.Wake(q.c.now, q.waiters.pop())
}

func (q *refQueue) TryPop() (int, bool) {
	if q.items.len() == 0 {
		return 0, false
	}
	return q.items.pop(), true
}
