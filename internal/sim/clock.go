// Process-oriented layer on top of the event heap: a virtual Clock that
// runs simulated processes so concurrent serving runtimes (N replica
// workers pulling from shared queues) simulate deterministically.
//
// A process is a Task: a resumable state machine whose Run continues it
// at the virtual time its wake fell due. Each Run ends by scheduling the
// task's next wake (Clock.Wake — a sleep), by parking it on a Queue
// (Queue.Wait — a blocking pop), or by returning without either, which
// ends the process. Exactly one task runs at any instant, on the goroutine
// that called Run, and the (time, seq) event order decides which, so every
// run with the same inputs is bit-identical and no run needs a goroutine.
//
// Proc adapts a straight-line goroutine process to the same scheduler for
// callers that prefer blocking calls (Sleep, Queue.Pop) to a state
// machine; every park and resume then costs a goroutine hand-off.
package sim

import (
	"fmt"
)

// Task is one simulated process. Run resumes it at virtual time now.
type Task interface {
	Run(now float64)
}

// Clock schedules tasks over virtual time. Its pending wakes are next, a
// one-event slot, and the heap. A task most often schedules the wake that
// runs next just before it returns, and the slot lets that wake skip a
// heap push and pop.
type Clock struct {
	now  float64
	seq  int
	next event // a pending wake outside the heap; next.task == nil: none
	heap eventHeap
	// parked counts the live tasks with no pending event: those waiting
	// on a Queue. They are the only tasks a drained heap can strand, so
	// a non-zero count when Run runs out of events is a deadlock.
	parked  int
	yielded chan struct{} // a running Proc goroutine signals the scheduler here
}

// NewClock returns a clock at virtual time 0 with no tasks.
func NewClock() *Clock {
	return &Clock{yielded: make(chan struct{})}
}

// Now returns the current virtual time.
func (c *Clock) Now() float64 { return c.now }

// Wake schedules task to run at virtual time t (a time in the past means
// now). Wakes due at the same time run in the order they were scheduled.
// A task starts by a Wake at the current time and sleeps by a Wake at a
// later one.
func (c *Clock) Wake(t float64, task Task) {
	if t < c.now {
		t = c.now
	}
	c.seq++
	ev := event{at: t, seq: c.seq, task: task}
	if c.next.task == nil {
		c.next = ev
		return
	}
	// The slot keeps the earlier of the two in (at, seq) order.
	if ev.before(c.next) {
		ev, c.next = c.next, ev
	}
	c.heap.push(ev)
}

// Run drives the clock until no wake is pending, returning the final
// virtual time. Each turn runs the earliest pending wake in (at, seq)
// order: the slot's when it precedes the heap's minimum. It panics on
// deadlock — tasks still parked on a queue with no event that could ever
// wake them.
func (c *Clock) Run() float64 {
	for {
		var ev event
		switch {
		case c.next.task != nil && (len(c.heap) == 0 || c.next.before(c.heap[0])):
			ev, c.next = c.next, event{}
		case len(c.heap) > 0:
			ev = c.heap.pop()
		default:
			if c.parked > 0 {
				panic(fmt.Sprintf("sim: deadlock: %d task(s) blocked at t=%.3f with no pending events", c.parked, c.now))
			}
			return c.now
		}
		c.now = ev.at
		ev.task.Run(c.now)
	}
}

// Proc is the handle of a goroutine process started by Go. It is only
// valid inside the function passed to Go, on that goroutine. As a Task,
// its Run hands the run token to that goroutine and waits for it back.
type Proc struct {
	c    *Clock
	name string
	wake chan struct{}
}

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.c.now }

// Go starts fn as a goroutine process at the current virtual time. Must
// be called before Run, or from a running task.
func (c *Clock) Go(name string, fn func(p *Proc)) {
	p := &Proc{c: c, name: name, wake: make(chan struct{})}
	go func() {
		<-p.wake // wait for the scheduler's first hand-off
		fn(p)
		c.yielded <- struct{}{} // return the run token for good
	}()
	c.Wake(c.now, p)
}

// Run hands the run token to p's goroutine and waits until it sleeps,
// blocks on a Queue, or exits.
func (p *Proc) Run(float64) {
	p.wake <- struct{}{}
	<-p.c.yielded
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
	// Fast path: if the wake would strictly precede every pending one, in
	// the slot and in the heap, this process is the next runnable one —
	// advance the clock and keep running without the park/resume channel
	// round-trip. Strictness matters: an equal-time pending wake has a
	// smaller seq and must run first. Skipping the seq increment is safe
	// because the relative order of all other wakes (and so their
	// tie-breaking) is unchanged.
	if (c.next.task == nil || t < c.next.at) && (len(c.heap) == 0 || t < c.heap[0].at) {
		c.now = t
		return
	}
	c.Wake(t, p)
	p.park()
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

// Queue is a FIFO channel between processes in virtual time. A task that
// finds it empty parks with Wait; a goroutine process blocks in Pop.
// Waiters are woken in FIFO order, so admission is fair and
// deterministic.
type Queue[T any] struct {
	c       *Clock
	items   ring[T]
	waiters ring[Task]
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
// still drain through TryPop/TryPopMin/Pop.
func (q *Queue[T]) Closed() bool { return q.closed }

// Close marks the queue finished and wakes every waiter; consumers see
// the end once the items drain.
func (q *Queue[T]) Close() {
	q.closed = true
	for q.waiters.len() > 0 {
		q.wakeOne()
	}
}

// Wait parks task until the next Push or Close, which wakes it at that
// virtual time through Clock.Wake. A woken task must pop again: another
// consumer may have taken the item first. A closed queue never wakes a
// new waiter, so a consumer checks Closed before it waits.
func (q *Queue[T]) Wait(task Task) {
	q.waiters.push(task)
	q.c.parked++
}

func (q *Queue[T]) wakeOne() {
	if q.waiters.len() == 0 {
		return
	}
	q.c.parked--
	q.c.Wake(q.c.now, q.waiters.pop())
}

// TryPop returns the head item without blocking (ok=false when empty).
func (q *Queue[T]) TryPop() (T, bool) {
	var zero T
	if q.items.len() == 0 {
		return zero, false
	}
	return q.items.pop(), true
}

// Pop blocks the goroutine process until an item is available, returning
// ok=false only once the queue is closed and drained.
func (q *Queue[T]) Pop(p *Proc) (T, bool) {
	for {
		if v, ok := q.TryPop(); ok {
			return v, true
		}
		if q.closed {
			var zero T
			return zero, false
		}
		q.Wait(p)
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
