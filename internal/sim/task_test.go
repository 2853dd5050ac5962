package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// A program is a set of processes, each a straight list of steps over a
// few shared queues. It runs once as state-machine Tasks and once as
// goroutine Procs; the two must interleave identically.
type stepKind int

const (
	stepSleep stepKind = iota
	stepPush
	stepPop
)

type step struct {
	kind stepKind
	d    float64 // sleep duration
	q    int     // queue index for push/pop
	v    int     // pushed value
}

// closeAt is when the closer process closes every queue: later than any
// wake a program's sleeps can reach, so every blocked pop ends.
const closeAt = 1000

func randomProgram(g *rand.Rand, queues int) [][]step {
	procs := make([][]step, 2+g.Intn(4))
	next := 0
	for i := range procs {
		n := 3 + g.Intn(13)
		for j := 0; j < n; j++ {
			s := step{kind: stepKind(g.Intn(3)), q: g.Intn(queues)}
			switch s.kind {
			case stepSleep:
				s.d = float64(g.Intn(4)) / 2 // 0, 0.5, 1, 1.5: ties and fast paths
			case stepPush:
				s.v = next
				next++
			}
			procs[i] = append(procs[i], s)
		}
	}
	return procs
}

// recorder collects the (time, name) trace both runs must agree on.
type recorder []string

func (r *recorder) add(now float64, name, what string) {
	*r = append(*r, fmt.Sprintf("%.1f %s %s", now, name, what))
}

// progTask runs one process of a program as a Task.
type progTask struct {
	c     *Clock
	name  string
	steps []step
	pc    int
	qs    []*Queue[int]
	tr    *recorder
}

func (t *progTask) Run(now float64) {
	for t.pc < len(t.steps) {
		s := t.steps[t.pc]
		q := t.qs[s.q]
		switch s.kind {
		case stepSleep:
			t.tr.add(now, t.name, fmt.Sprintf("sleep %.1f", s.d))
			t.pc++
			t.c.Wake(now+s.d, t)
			return
		case stepPush:
			if q.Closed() {
				t.tr.add(now, t.name, "push skipped")
			} else {
				t.tr.add(now, t.name, fmt.Sprintf("push q%d %d", s.q, s.v))
				q.Push(s.v)
			}
		case stepPop:
			v, ok := q.TryPop()
			if !ok && !q.Closed() {
				q.Wait(t)
				return
			}
			t.tr.add(now, t.name, fmt.Sprintf("pop q%d %d %v", s.q, v, ok))
		}
		t.pc++
	}
	t.tr.add(now, t.name, "exit")
}

// closerTask closes every queue at closeAt.
type closerTask struct {
	qs    []*Queue[int]
	tr    *recorder
	armed bool
}

func (t *closerTask) Run(now float64) {
	if !t.armed {
		t.armed = true
		t.qs[0].c.Wake(closeAt, t)
		return
	}
	t.tr.add(now, "closer", "close")
	for _, q := range t.qs {
		q.Close()
	}
}

func runAsTasks(procs [][]step, queues int) (recorder, float64) {
	c := NewClock()
	var tr recorder
	qs := make([]*Queue[int], queues)
	for i := range qs {
		qs[i] = NewQueue[int](c)
	}
	for i, steps := range procs {
		c.Wake(0, &progTask{c: c, name: fmt.Sprintf("p%d", i), steps: steps, qs: qs, tr: &tr})
	}
	c.Wake(0, &closerTask{qs: qs, tr: &tr})
	end := c.Run()
	return tr, end
}

func runAsProcs(procs [][]step, queues int) (recorder, float64) {
	c := NewClock()
	var tr recorder
	qs := make([]*Queue[int], queues)
	for i := range qs {
		qs[i] = NewQueue[int](c)
	}
	for i, steps := range procs {
		name, steps := fmt.Sprintf("p%d", i), steps
		c.Go(name, func(p *Proc) {
			for _, s := range steps {
				q := qs[s.q]
				switch s.kind {
				case stepSleep:
					tr.add(p.Now(), name, fmt.Sprintf("sleep %.1f", s.d))
					p.Sleep(s.d)
				case stepPush:
					if q.Closed() {
						tr.add(p.Now(), name, "push skipped")
					} else {
						tr.add(p.Now(), name, fmt.Sprintf("push q%d %d", s.q, s.v))
						q.Push(s.v)
					}
				case stepPop:
					v, ok := q.Pop(p)
					tr.add(p.Now(), name, fmt.Sprintf("pop q%d %d %v", s.q, v, ok))
				}
			}
			tr.add(p.Now(), name, "exit")
		})
	}
	c.Go("closer", func(p *Proc) {
		p.SleepUntil(closeAt)
		tr.add(p.Now(), "closer", "close")
		for _, q := range qs {
			q.Close()
		}
	})
	end := c.Run()
	return tr, end
}

// TestTasksMatchProcs is the equivalence property behind the callback
// runtime: a process rewritten as a Task — a sleep becomes a Wake and
// return, a blocking pop becomes TryPop, then Wait and return — runs in
// exactly the (time, order) of its goroutine form, across random
// sleep/push/pop programs with ties, fast-path sleeps and blocked pops.
func TestTasksMatchProcs(t *testing.T) {
	const queues = 2
	for seed := int64(1); seed <= 300; seed++ {
		procs := randomProgram(rand.New(rand.NewSource(seed)), queues)
		tasks, tEnd := runAsTasks(procs, queues)
		gor, gEnd := runAsProcs(procs, queues)
		if !reflect.DeepEqual(tasks, gor) || tEnd != gEnd {
			t.Fatalf("seed %d: traces differ\ntasks (end %v):\n%v\nprocs (end %v):\n%v", seed, tEnd, tasks, gEnd, gor)
		}
	}
}
