// The asynchronous prefetch layer: per-replica loader processes on the
// simulation clock that promote a request's chunks out of the cold tiers
// while the request is still queued, so prefill finds them hot (or joins
// a transfer already in flight and pays only the residual wait). This is
// the serving-side half of CacheBlend's loading controller: the
// controller picks how much recompute a tier's loading delay hides, the
// loader moves the chunks early enough that there is less delay to hide.
// The transfer model itself — arrival-time completion, in-flight joins,
// waste accounting — lives in kvstore (kvstore/prefetch.go); this file
// decides when transfers are worth issuing.
package serve

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/chunk"
	"repro/internal/kvstore"
	"repro/internal/sim"
)

// Prefetch policy names accepted by Config.PrefetchPolicy.
const (
	// PrefetchOff loads synchronously: a request reads its chunks from
	// whichever tier holds them at admission — the baseline the sweep
	// compares the async policies against, and the default (an empty
	// Config.PrefetchPolicy means the same).
	PrefetchOff = "off"
	// PrefetchOnEnqueue starts a loader per replica and prefetches each
	// arriving request's own chunks the moment the request enters the
	// admission queue: the queueing delay becomes transfer overlap.
	PrefetchOnEnqueue = "on-enqueue"
	// PrefetchPredictive is PrefetchOnEnqueue plus a demand signal: when
	// arrivals find the admission queue backed up past the replica count,
	// the loaders additionally promote the most popular cold chunks by
	// decayed hit count, so the hot set is resident before the requests
	// that want it are even admitted. This is what tracks the workload
	// generators' popularity drift.
	PrefetchPredictive = "predictive"
)

const (
	// predictiveFanout is how many popular cold chunks one queue-depth
	// signal promotes. Deliberately small: every speculative promotion
	// evicts a top-tier resident, and the queue-depth trigger fires on
	// every backed-up arrival anyway, so a small fanout drip-feeds the hot
	// set upward instead of churning the (much smaller) HBM tier wholesale.
	predictiveFanout = 2
	// popHalflife is the popularity estimator's decay half-life in
	// seconds of virtual time — long enough to rank a stable hot set,
	// short enough to follow the generators' drift periods (tens to
	// hundreds of seconds).
	popHalflife = 64.0
	// popMaxEntries caps the estimator's tracked chunks.
	popMaxEntries = 4096
)

// prefetchJob is one unit of loader work: promote these chunk ids on
// behalf of request req — or, with req < 0, whatever the popularity
// estimator ranks hottest among the cold-tier residents (the predictive
// queue-depth signal). Carrying the request index is what makes the job
// cancellable: once the request is admitted its tier reads are already
// paid, and promoting its chunks afterwards is pure waste.
type prefetchJob struct {
	req int
	ids []int
}

// prefetchActive reports whether loader processes actually run.
func (c Config) prefetchActive() bool {
	return c.PrefetchPolicy == PrefetchOnEnqueue || c.PrefetchPolicy == PrefetchPredictive
}

// prefetchBW returns the effective loader bandwidth fraction.
func (c Config) prefetchBW() float64 {
	if c.PrefetchBW <= 0 {
		return 1
	}
	return c.PrefetchBW
}

// loader is replica r's prefetch process: it drains its node's prefetch
// queue and issues tier promotions, sleeping each transfer to completion
// before issuing the next — one transfer in flight per loader is the
// bandwidth budget's serialisation point (the budget itself scales each
// transfer's duration). Jobs whose request was admitted while they queued
// are dropped, and a mid-job admission stops the remaining keys: the
// request's tier reads are already priced against wherever its chunks
// are, so further promotion only displaces top-tier residents and bills
// PrefetchWastedBytes. Popping a predictive job releases its node's
// dedupe slot before the promotions run. Each Run continues the current
// job; with none left the loader parks on its queue, and exits once the
// queue is closed and drained.
type loader struct {
	c     *cluster
	qi    int
	bw    float64
	queue *sim.Queue[prefetchJob]
	store *kvstore.Tiered
	cold  func(chunk.ID) bool // predictive candidates: resident below the top tier
	job   prefetchJob
	keys  []chunk.ID // the current job's store keys; the buffer is reused across jobs
	k     int        // next key of the current job
}

// newLoader builds replica r's loader over its node's queue and store.
func (c *cluster) newLoader(r int) *loader {
	qi := c.qi(r)
	store := c.stores[qi]
	return &loader{c: c, qi: qi, bw: c.cfg.prefetchBW(), queue: c.pfQueues[qi], store: store,
		cold: func(id chunk.ID) bool { return store.TierOf(id) > 0 }}
}

func (l *loader) Run(now float64) {
	c := l.c
	for {
		for l.k < len(l.keys) {
			if l.job.req >= 0 && c.admitted[l.job.req] {
				break // admitted mid-job: stop moving its chunks
			}
			key := l.keys[l.k]
			l.k++
			if arrival, started := l.store.Prefetch(key, now, l.bw); started {
				c.clock.Wake(arrival, l) // sleep the transfer to completion
				return
			}
		}
		l.keys, l.k = l.keys[:0], 0
		job, ok := l.queue.TryPop()
		if !ok {
			if !l.queue.Closed() {
				l.queue.Wait(l)
			}
			return
		}
		if job.req < 0 {
			c.predPend[l.qi]--
		} else if c.admitted[job.req] {
			continue // stale: the request no longer benefits
		}
		l.job = job
		l.keys = l.jobKeys(l.keys, now)
	}
}

// jobKeys appends the current job's store keys to dst: a request job
// names its own chunks; a predictive job asks the node's popularity
// estimator for the hottest chunks currently stranded on a cold tier.
func (l *loader) jobKeys(dst []chunk.ID, now float64) []chunk.ID {
	if l.job.req < 0 {
		return l.c.pops[l.qi].Top(dst, now, predictiveFanout, l.cold)
	}
	for _, id := range l.job.ids {
		dst = append(dst, l.c.chunkKeyOf(id))
	}
	return dst
}

// lookup resolves one chunk lookup against node si's store at virtual
// time now through the transfer-aware GetAt, which may join an in-flight
// promotion and report a residual wait (with nothing in flight it is a
// plain Get). When loaders run, the lookup also feeds the node's
// popularity view the predictive loader ranks by.
func (c *cluster) lookup(si int, key chunk.ID, now float64) (tier int, wait float64, ok bool) {
	if c.pfQueues != nil {
		c.pops[si].Touch(key, now)
	}
	_, tier, wait, ok = c.stores[si].GetAt(key, now)
	return tier, wait, ok
}

// validatePrefetch is the Config.Validate slice for the prefetch fields.
func (c Config) validatePrefetch() error {
	switch c.PrefetchPolicy {
	case "", PrefetchOff, PrefetchOnEnqueue, PrefetchPredictive:
	default:
		return fmt.Errorf("prefetch policy %q: want %s, %s or %s",
			c.PrefetchPolicy, PrefetchOff, PrefetchOnEnqueue, PrefetchPredictive)
	}
	if !finite(c.PrefetchBW) || c.PrefetchBW < 0 || c.PrefetchBW > 1 {
		return fmt.Errorf("prefetch bandwidth %v: must be a fraction in [0, 1]", c.PrefetchBW)
	}
	if c.PrefetchBW > 0 && !c.prefetchActive() {
		return fmt.Errorf("prefetch bandwidth %v requires an active prefetch policy (got %q)",
			c.PrefetchBW, c.PrefetchPolicy)
	}
	if c.prefetchActive() {
		if len(c.tierConfigs()) < 2 {
			return fmt.Errorf("prefetch policy %q needs a multi-tier hierarchy to move chunks across", c.PrefetchPolicy)
		}
		switch c.Scheme {
		case baselines.FullKVReuse, baselines.CacheBlend:
		default:
			return fmt.Errorf("prefetch policy %q only applies to chunk-reusing schemes (got %q)",
				c.PrefetchPolicy, c.Scheme)
		}
	}
	return nil
}
