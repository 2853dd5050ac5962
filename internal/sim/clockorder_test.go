package sim

import (
	"fmt"
	"slices"
	"testing"
)

// orderClock is what an order program drives: Clock, or the heap-only
// reference in reference_test.go.
type orderClock interface {
	Wake(t float64, task Task)
	Run() float64
	Now() float64
	// pendingMin returns the earliest pending wake, or Now with none.
	pendingMin() float64
	newQueue() orderQueue
	// goSleeper starts fn as a goroutine process, which sleeps through
	// the function fn is passed.
	goSleeper(fn func(sleepUntil func(t float64)))
}

type orderQueue interface {
	Push(v int)
	TryPop() (int, bool)
	Wait(task Task)
	Close()
	Closed() bool
}

type onClock struct{ *Clock }

func (c onClock) pendingMin() float64 {
	m := c.now
	switch {
	case c.next.task != nil && (len(c.heap) == 0 || c.next.at < c.heap[0].at):
		m = c.next.at
	case len(c.heap) > 0:
		m = c.heap[0].at
	}
	return m
}

func (c onClock) newQueue() orderQueue { return NewQueue[int](c.Clock) }

func (c onClock) goSleeper(fn func(func(float64))) {
	c.Go("sleeper", func(p *Proc) { fn(p.SleepUntil) })
}

type onRef struct{ *refClock }

func (c onRef) pendingMin() float64 {
	if len(c.heap) > 0 {
		return c.heap[0].at
	}
	return c.now
}

func (c onRef) newQueue() orderQueue { return &refQueue{c: c.refClock} }

func (c onRef) goSleeper(fn func(func(float64))) {
	c.Go(func(p *refProc) { fn(p.SleepUntil) })
}

// An order program is a few tasks and one goroutine sleeper, each a
// straight list of steps over two shared queues. Every time is a multiple
// of 0.5, so wakes tie exactly.
type orderOp uint8

const (
	opSleep   orderOp = iota // wake at now + arg/2
	opNearMin                // wake at the pending minimum + (arg−1)/2: before, at or after it
	opPush                   // push onto queue arg&1, unless it is closed
	opPop                    // pop queue arg&1; a task waits while it is empty and open
	opClose                  // close queue arg&1, waking its waiters
	orderOps
)

type orderStep struct {
	op  orderOp
	arg int
}

// orderByte encodes one step of process who.
func orderByte(who int, op orderOp, arg int) byte {
	return byte(op) | byte(arg)<<3 | byte(who)<<5
}

// decodeOrder reads an order program: the first byte picks 2–4 tasks,
// and each later byte is one step (orderByte) of a task or, for the last
// process index, of the sleeper.
func decodeOrder(data []byte) [][]orderStep {
	tasks := 2
	if len(data) > 0 {
		tasks += int(data[0] % 3)
		data = data[1:]
	}
	procs := make([][]orderStep, tasks+1)
	for _, b := range data[:min(len(data), 256)] {
		who := int(b>>5) % len(procs)
		procs[who] = append(procs[who], orderStep{op: orderOp(b&7) % orderOps, arg: int(b>>3) & 3})
	}
	return procs
}

// orderEvent is one step a process took: when, by whom, which, and the
// value it pushed or popped. v is -1 for no value, -2 for a wait and -3
// for the process's exit.
type orderEvent struct {
	at         float64
	proc, step int
	v          int
	ok         bool
}

// orderRun is what a program's run leaves: its steps, Run's final time,
// and the panic Run raised, if any.
type orderRun struct {
	trace []orderEvent
	end   float64
	panic string
}

func (r *orderRun) add(at float64, proc, step, v int, ok bool) {
	r.trace = append(r.trace, orderEvent{at: at, proc: proc, step: step, v: v, ok: ok})
}

// orderTask runs one task of a program.
type orderTask struct {
	c     orderClock
	id    int
	steps []orderStep
	pc    int
	qs    []orderQueue
	run   *orderRun
}

func (t *orderTask) Run(now float64) {
	for ; t.pc < len(t.steps); t.pc++ {
		s := t.steps[t.pc]
		q := t.qs[s.arg&1]
		switch s.op {
		case opSleep:
			t.run.add(now, t.id, t.pc, -1, true)
			t.pc++
			t.c.Wake(now+float64(s.arg)/2, t)
			return
		case opNearMin:
			t.run.add(now, t.id, t.pc, -1, true)
			t.pc++
			t.c.Wake(t.c.pendingMin()+float64(s.arg-1)/2, t)
			return
		case opPush:
			v := -1
			if !q.Closed() {
				v = 1000*t.id + t.pc
				q.Push(v)
			}
			t.run.add(now, t.id, t.pc, v, true)
		case opPop:
			v, ok := q.TryPop()
			if !ok && !q.Closed() {
				t.run.add(now, t.id, t.pc, -2, false)
				q.Wait(t)
				return
			}
			t.run.add(now, t.id, t.pc, v, ok)
		case opClose:
			q.Close()
			t.run.add(now, t.id, t.pc, -1, true)
		}
	}
	t.run.add(now, t.id, t.pc, -3, true)
}

// runOrder runs procs on c: every task woken at 0 in order, then the
// sleeper started.
func runOrder(c orderClock, procs [][]orderStep) (run orderRun) {
	defer func() {
		if r := recover(); r != nil {
			run.panic = fmt.Sprint(r)
		}
	}()
	qs := []orderQueue{c.newQueue(), c.newQueue()}
	last := len(procs) - 1
	for i, steps := range procs[:last] {
		c.Wake(0, &orderTask{c: c, id: i, steps: steps, qs: qs, run: &run})
	}
	c.goSleeper(func(sleepUntil func(float64)) {
		for pc, s := range procs[last] {
			now := c.Now()
			q := qs[s.arg&1]
			switch s.op {
			case opSleep:
				run.add(now, last, pc, -1, true)
				sleepUntil(now + float64(s.arg)/2)
			case opNearMin:
				run.add(now, last, pc, -1, true)
				sleepUntil(c.pendingMin() + float64(s.arg-1)/2)
			case opPush:
				v := -1
				if !q.Closed() {
					v = 1000*last + pc
					q.Push(v)
				}
				run.add(now, last, pc, v, true)
			case opPop: // the sleeper never blocks
				v, ok := q.TryPop()
				run.add(now, last, pc, v, ok)
			case opClose:
				q.Close()
				run.add(now, last, pc, -1, true)
			}
		}
		run.add(c.Now(), last, len(procs[last]), -3, true)
	})
	run.end = c.Run()
	return run
}

// FuzzClockOrder runs random programs on Clock and on the heap-only
// reference clock. Tasks wake themselves before, at and after the pending
// minimum (exact ties included), wake each other through queue pushes,
// waits and closes, and one goroutine process sleeps among them through
// SleepUntil's fast path. Both clocks must take the same steps in the same
// (time, process, step) order, return the same final time, and raise the
// same deadlock panic.
func FuzzClockOrder(f *testing.F) {
	f.Add([]byte{})
	// A self-wake held beside the heap ties an earlier-scheduled heap
	// wake at t=1, which must run first.
	f.Add([]byte{0,
		orderByte(0, opSleep, 2),
		orderByte(1, opSleep, 1), orderByte(1, opSleep, 1)})
	// The sleeper sleeps to the slot's wake at t=1: no fast path, the
	// earlier-scheduled wake runs first.
	f.Add([]byte{0, orderByte(0, opSleep, 2), orderByte(2, opNearMin, 1)})
	// Wakes at, before and after the pending minimum.
	f.Add([]byte{1,
		orderByte(0, opSleep, 3), orderByte(1, opNearMin, 1), orderByte(2, opNearMin, 0),
		orderByte(1, opNearMin, 2), orderByte(0, opNearMin, 1), orderByte(2, opNearMin, 3)})
	// A consumer waits; a producer pushes and closes; the other queue's
	// waiter is stranded, a deadlock.
	f.Add([]byte{0,
		orderByte(0, opPop, 0), orderByte(0, opPop, 0), orderByte(0, opPop, 1),
		orderByte(1, opSleep, 1), orderByte(1, opPush, 0), orderByte(1, opSleep, 0),
		orderByte(1, opClose, 0)})
	// The sleeper sleeps to the pending minimum (no fast path: the tie
	// runs first), before it (fast path) and past it, among self-waking
	// tasks and a close that wakes two waiters.
	f.Add([]byte{0,
		orderByte(0, opPop, 1), orderByte(1, opPop, 1),
		orderByte(2, opNearMin, 1), orderByte(2, opSleep, 1), orderByte(2, opNearMin, 0),
		orderByte(2, opPush, 1), orderByte(2, opNearMin, 3), orderByte(2, opClose, 1),
		orderByte(0, opSleep, 2), orderByte(1, opNearMin, 1), orderByte(0, opNearMin, 1)})
	f.Fuzz(func(t *testing.T, data []byte) {
		procs := decodeOrder(data)
		want := runOrder(onRef{newRefClock()}, procs)
		got := runOrder(onClock{NewClock()}, procs)
		if !slices.Equal(got.trace, want.trace) || got.end != want.end || got.panic != want.panic {
			t.Fatalf("program %v:\nclock (end %v, panic %q):\n%v\nreference (end %v, panic %q):\n%v",
				procs, got.end, got.panic, got.trace, want.end, want.panic, want.trace)
		}
	})
}
