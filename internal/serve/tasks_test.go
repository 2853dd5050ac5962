package serve

import (
	"runtime"
	"testing"

	"repro/internal/workload"
)

// countingSession samples the goroutine count from inside a run: the
// runtime calls Complete at every retirement, mid-simulation.
type countingSession struct {
	workload.Session
	max int
}

func (s *countingSession) Complete(client int, at float64) (workload.Issue, bool) {
	if n := runtime.NumGoroutine(); n > s.max {
		s.max = n
	}
	return s.Session.Complete(client, at)
}

// countingClosedLoop is a ClosedLoop whose session samples goroutines.
type countingClosedLoop struct {
	workload.ClosedLoop
	sess *countingSession
}

func (w *countingClosedLoop) Session(n int, seed int64) workload.Session {
	w.sess = &countingSession{Session: w.ClosedLoop.Session(n, seed)}
	return w.sess
}

// TestRunSpawnsNoGoroutines: every simulated process — arrivals, replica
// workers, prefetch loaders, membership joins, closed-loop client issues —
// is a task on the caller's goroutine, so a run starts no goroutine,
// during or after. The checks allow the count to fall: goroutines of
// earlier tests may still be exiting.
func TestRunSpawnsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	cfg := routerTestConfig(RouterAffinity)
	cfg.PrefetchPolicy = PrefetchPredictive
	cfg.Events = failoverEvents()
	res, err := RunWorkload(cfg, failoverMix(), 300, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failovers != 1 || res.PrefetchIssued == 0 {
		t.Fatalf("scenario did not exercise kills (%d) and loaders (%d issued)", res.Failovers, res.PrefetchIssued)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("open-loop run with affinity, prefetch and kill/join: %d goroutines after, %d before", n, before)
	}

	w := &countingClosedLoop{ClosedLoop: closedLoopW(4)}
	if _, err := RunWorkload(schedConfig(SchedFIFO), w, 200, 40, 7); err != nil {
		t.Fatal(err)
	}
	if w.sess.max > before {
		t.Fatalf("closed-loop run: up to %d goroutines mid-run, %d before", w.sess.max, before)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("closed-loop run: %d goroutines after, %d before", n, before)
	}
}
