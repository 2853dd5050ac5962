// Process-oriented layer on top of the event heap: a virtual Clock that
// coordinates goroutine "processes" so concurrent serving runtimes (N
// replica workers pulling from shared queues) simulate deterministically.
//
// Exactly one process runs at any instant: the scheduler hands a run
// token to the process due at the earliest virtual time, and the process
// hands it back when it sleeps, blocks on a Queue, or exits. Processes
// are real goroutines — the race detector sees every hand-off — but the
// single-token discipline plus the (time, seq) event order makes every
// run with the same inputs bit-identical.
package sim

import (
	"fmt"
)

// Clock schedules process goroutines over virtual time.
type Clock struct {
	now     float64
	seq     int
	heap    eventHeap
	yielded chan struct{} // a running process signals the scheduler here
	live    int           // registered, not-yet-finished processes
}

// NewClock returns a clock at virtual time 0 with no processes.
func NewClock() *Clock {
	return &Clock{yielded: make(chan struct{})}
}

// Now returns the current virtual time.
func (c *Clock) Now() float64 { return c.now }

// Proc is the handle a process uses to interact with virtual time. It is
// only valid inside the function passed to Go, on that goroutine.
type Proc struct {
	c    *Clock
	name string
	wake chan struct{}
}

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.c.now }

// Go registers fn as a process starting at the current virtual time.
// Must be called before Run (or from a running process).
func (c *Clock) Go(name string, fn func(p *Proc)) {
	p := &Proc{c: c, name: name, wake: make(chan struct{})}
	c.live++
	go func() {
		<-p.wake // wait for the scheduler's first hand-off
		fn(p)
		c.live--
		c.yielded <- struct{}{} // return the run token for good
	}()
	c.atProc(c.now, p)
}

// at schedules fn on the raw event heap.
func (c *Clock) at(t float64, fn func(now float64)) {
	if t < c.now {
		t = c.now
	}
	c.seq++
	c.heap.push(event{at: t, seq: c.seq, fn: fn})
}

// atProc schedules a resume of p — the closure-free fast form for the
// dominant sleep/wake path.
func (c *Clock) atProc(t float64, p *Proc) {
	if t < c.now {
		t = c.now
	}
	c.seq++
	c.heap.push(event{at: t, seq: c.seq, p: p})
}

// resume hands the run token to p and waits for it to yield or exit.
// Called only from the scheduler loop (inside an event fn).
func (c *Clock) resume(p *Proc) {
	p.wake <- struct{}{}
	<-c.yielded
}

// park gives the run token back to the scheduler and waits to be resumed.
// Called only from a process goroutine.
func (p *Proc) park() {
	p.c.yielded <- struct{}{}
	<-p.wake
}

// Sleep suspends the process for d seconds of virtual time.
func (p *Proc) Sleep(d float64) {
	if d < 0 {
		d = 0
	}
	p.SleepUntil(p.c.now + d)
}

// SleepUntil suspends the process until absolute virtual time t.
func (p *Proc) SleepUntil(t float64) {
	c := p.c
	if t < c.now {
		t = c.now
	}
	// Fast path: if the wake event would be the strict heap minimum, this
	// process is the next runnable one — advance the clock and keep
	// running without the park/resume channel round-trip. Strictness
	// matters: an equal-time event already in the heap has a smaller seq
	// and must run first. Skipping the seq increment is safe because the
	// relative push order of all other events (and so their tie-breaking)
	// is unchanged.
	if len(c.heap) == 0 || t < c.heap[0].at {
		c.now = t
		return
	}
	c.atProc(t, p)
	p.park()
}

// Run drives the clock until every process has exited and the event queue
// is drained, returning the final virtual time. It panics on deadlock —
// processes still blocked with no event that could ever wake them.
func (c *Clock) Run() float64 {
	for len(c.heap) > 0 {
		ev := c.heap.pop()
		c.now = ev.at
		if ev.p != nil {
			c.resume(ev.p)
		} else {
			ev.fn(c.now)
		}
	}
	if c.live > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d process(es) blocked at t=%.3f with no pending events", c.live, c.now))
	}
	return c.now
}

// ring is a power-of-two circular buffer. Unlike the previous
// `s = s[1:]` FIFO idiom it releases popped slots (no dead head memory
// retained for the run) and reuses its storage across push/pop cycles.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) len() int { return r.n }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero // release the reference in the vacated slot
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// at returns the i-th queued item (0 = head) without removing it.
func (r *ring[T]) at(i int) T {
	return r.buf[(r.head+i)&(len(r.buf)-1)]
}

// removeAt removes and returns the i-th item, preserving the relative
// order of everything else: the items ahead of i shift back one slot and
// the head advances. O(i), which stays cheap because callers remove the
// minimum of a scan that tie-breaks toward the head.
func (r *ring[T]) removeAt(i int) T {
	mask := len(r.buf) - 1
	v := r.buf[(r.head+i)&mask]
	for j := i; j > 0; j-- {
		r.buf[(r.head+j)&mask] = r.buf[(r.head+j-1)&mask]
	}
	var zero T
	r.buf[r.head] = zero // release the reference in the vacated slot
	r.head = (r.head + 1) & mask
	r.n--
	return v
}

func (r *ring[T]) grow() {
	next := len(r.buf) * 2
	if next == 0 {
		next = 8
	}
	buf := make([]T, next)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}

// Queue is a FIFO channel between processes in virtual time. Pop blocks
// the calling process until an item arrives or the queue is closed;
// blocked consumers are woken in FIFO order, so admission is fair and
// deterministic.
type Queue[T any] struct {
	c       *Clock
	items   ring[T]
	waiters ring[*Proc]
	closed  bool
}

// NewQueue makes an empty open queue on c.
func NewQueue[T any](c *Clock) *Queue[T] {
	return &Queue[T]{c: c}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.items.len() }

// Push appends v and wakes the longest-waiting consumer, if any.
func (q *Queue[T]) Push(v T) {
	if q.closed {
		panic("sim: push on closed queue")
	}
	q.items.push(v)
	q.wakeOne()
}

// Closed reports whether Close has been called. Items already queued
// still drain through Pop/TryPop.
func (q *Queue[T]) Closed() bool { return q.closed }

// Close marks the queue finished: blocked and future Pops return ok=false
// once the items drain.
func (q *Queue[T]) Close() {
	q.closed = true
	for q.waiters.len() > 0 {
		q.wakeOne()
	}
}

func (q *Queue[T]) wakeOne() {
	if q.waiters.len() == 0 {
		return
	}
	q.c.atProc(q.c.now, q.waiters.pop())
}

// TryPop returns the head item without blocking (ok=false when empty).
func (q *Queue[T]) TryPop() (T, bool) {
	var zero T
	if q.items.len() == 0 {
		return zero, false
	}
	return q.items.pop(), true
}

// Pop blocks the process until an item is available, returning ok=false
// only once the queue is closed and drained.
func (q *Queue[T]) Pop(p *Proc) (T, bool) {
	for {
		if v, ok := q.TryPop(); ok {
			return v, true
		}
		if q.closed {
			var zero T
			return zero, false
		}
		q.waiters.push(p)
		p.park()
	}
}

// TryPopMin removes and returns the minimum queued item under less
// without blocking (ok=false when empty). Ties keep the earliest-pushed
// item — a less that never orders anything degrades to exact FIFO — so
// priority consumers stay as deterministic as TryPop.
func (q *Queue[T]) TryPopMin(less func(a, b T) bool) (T, bool) {
	var zero T
	n := q.items.len()
	if n == 0 {
		return zero, false
	}
	best := 0
	for i := 1; i < n; i++ {
		if less(q.items.at(i), q.items.at(best)) {
			best = i
		}
	}
	return q.items.removeAt(best), true
}

// PopMin is the blocking form of TryPopMin: it parks the process like Pop
// until an item is available, then takes the minimum under less,
// returning ok=false only once the queue is closed and drained.
func (q *Queue[T]) PopMin(p *Proc, less func(a, b T) bool) (T, bool) {
	for {
		if v, ok := q.TryPopMin(less); ok {
			return v, true
		}
		if q.closed {
			var zero T
			return zero, false
		}
		q.waiters.push(p)
		p.park()
	}
}
