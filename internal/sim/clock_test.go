package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// TestClockProcessOrdering runs table-driven scenarios through the
// process scheduler and checks the exact wake order.
func TestClockProcessOrdering(t *testing.T) {
	cases := []struct {
		name  string
		setup func(c *Clock, trace *[]string)
		want  []string
	}{
		{
			name: "sleeps fire in time order regardless of spawn order",
			setup: func(c *Clock, trace *[]string) {
				for i, d := range []float64{3, 1, 2} {
					i, d := i, d
					c.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
						p.Sleep(d)
						*trace = append(*trace, fmt.Sprintf("p%d@%.0f", i, p.Now()))
					})
				}
			},
			want: []string{"p1@1", "p2@2", "p0@3"},
		},
		{
			name: "equal wake times break ties by schedule order",
			setup: func(c *Clock, trace *[]string) {
				for i := 0; i < 3; i++ {
					i := i
					c.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
						p.Sleep(5)
						*trace = append(*trace, fmt.Sprintf("p%d", i))
					})
				}
			},
			want: []string{"p0", "p1", "p2"},
		},
		{
			name: "queue delivers FIFO to a single consumer",
			setup: func(c *Clock, trace *[]string) {
				q := NewQueue[int](c)
				c.Go("producer", func(p *Proc) {
					for i := 0; i < 4; i++ {
						p.Sleep(1)
						q.Push(i)
					}
					q.Close()
				})
				c.Go("consumer", func(p *Proc) {
					for {
						v, ok := q.Pop(p)
						if !ok {
							return
						}
						*trace = append(*trace, fmt.Sprintf("got%d@%.0f", v, p.Now()))
					}
				})
			},
			want: []string{"got0@1", "got1@2", "got2@3", "got3@4"},
		},
		{
			name: "blocked consumers wake in FIFO order (admission fairness)",
			setup: func(c *Clock, trace *[]string) {
				q := NewQueue[int](c)
				for i := 0; i < 3; i++ {
					i := i
					c.Go(fmt.Sprintf("worker%d", i), func(p *Proc) {
						for {
							v, ok := q.Pop(p)
							if !ok {
								return
							}
							*trace = append(*trace, fmt.Sprintf("w%d<-%d", i, v))
						}
					})
				}
				c.Go("producer", func(p *Proc) {
					for i := 0; i < 3; i++ {
						p.Sleep(1)
						q.Push(10 + i)
					}
					q.Close()
				})
			},
			want: []string{"w0<-10", "w1<-11", "w2<-12"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewClock()
			var trace []string
			tc.setup(c, &trace)
			c.Run()
			if !reflect.DeepEqual(trace, tc.want) {
				t.Fatalf("trace %v, want %v", trace, tc.want)
			}
		})
	}
}

func TestClockDeterministic(t *testing.T) {
	run := func() []string {
		c := NewClock()
		q := NewQueue[int](c)
		var trace []string
		c.Go("producer", func(p *Proc) {
			for i := 0; i < 20; i++ {
				p.Sleep(0.5)
				q.Push(i)
			}
			q.Close()
		})
		for w := 0; w < 4; w++ {
			w := w
			c.Go(fmt.Sprintf("w%d", w), func(p *Proc) {
				for {
					v, ok := q.Pop(p)
					if !ok {
						return
					}
					p.Sleep(1.3) // busy: forces hand-offs between workers
					trace = append(trace, fmt.Sprintf("w%d:%d@%.1f", w, v, p.Now()))
				}
			})
		}
		c.Run()
		return trace
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical runs diverged:\n%v\n%v", a, b)
	}
	if len(a) != 20 {
		t.Fatalf("expected 20 completions, got %d", len(a))
	}
}

// taskFunc adapts a function to a Task.
type taskFunc func(now float64)

func (f taskFunc) Run(now float64) { f(now) }

// TestClockSameTimeFIFO: task wakes and goroutine-process wakes due at the
// same virtual time run in the order they were scheduled — the seq
// tiebreak every deterministic run rests on — and a callback scheduled in
// the past runs now.
func TestClockSameTimeFIFO(t *testing.T) {
	c := NewClock()
	var order []string
	for i := 0; i < 3; i++ {
		i := i
		c.Wake(1, taskFunc(func(now float64) { order = append(order, fmt.Sprintf("fn%d@%.0f", i, now)) }))
		c.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.SleepUntil(1)
			order = append(order, fmt.Sprintf("p%d@%.0f", i, p.Now()))
		})
	}
	c.Wake(2, taskFunc(func(float64) {
		c.Wake(0, taskFunc(func(now float64) { order = append(order, fmt.Sprintf("past@%.0f", now)) }))
	}))
	if end := c.Run(); end != 2 {
		t.Fatalf("final time %v, want 2", end)
	}
	// Each process's wake is scheduled when it first runs at t=0, after
	// all three task wakes were already pushed.
	want := []string{"fn0@1", "fn1@1", "fn2@1", "p0@1", "p1@1", "p2@1", "past@2"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}

func TestClockRunReturnsFinalTime(t *testing.T) {
	c := NewClock()
	c.Go("p", func(p *Proc) {
		p.Sleep(2)
		p.Sleep(3)
	})
	if end := c.Run(); end != 5 {
		t.Fatalf("final time %v, want 5", end)
	}
	if c.Now() != 5 {
		t.Fatalf("Now() %v after Run", c.Now())
	}
}

func TestClockDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	c := NewClock()
	q := NewQueue[int](c)
	c.Go("stuck", func(p *Proc) {
		q.Pop(p) // never pushed, never closed
	})
	c.Run()
}

// TestClockDeadlockPanicsOnStrandedWait: a task parked on a queue that is
// never pushed or closed is a deadlock once the heap drains.
func TestClockDeadlockPanicsOnStrandedWait(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	c := NewClock()
	q := NewQueue[int](c)
	var waiter taskFunc
	waiter = func(float64) { q.Wait(waiter) }
	c.Wake(0, waiter)
	c.Run()
}

func TestQueueTryPopAndLen(t *testing.T) {
	c := NewClock()
	q := NewQueue[string](c)
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on empty queue succeeded")
	}
	q.Push("a")
	q.Push("b")
	if q.Len() != 2 {
		t.Fatalf("Len %d, want 2", q.Len())
	}
	v, ok := q.TryPop()
	if !ok || v != "a" {
		t.Fatalf("TryPop got %q/%v", v, ok)
	}
}
