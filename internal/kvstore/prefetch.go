// Asynchronous tier prefetch: the in-flight transfer model behind the
// serving runtime's loader processes. CacheBlend's loading controller
// (§5.1) hides NVMe→RAM→HBM transfer under recompute; Prefetch models
// the transfer itself as a first-class object with a completion time, so
// a loader running on the simulation clock can start promoting a chunk
// long before prefill needs it. While a transfer is in flight the chunk
// stays readable on its source tier; a lookup that arrives mid-transfer
// "joins" it and is charged only the residual wait (arrival − now)
// instead of a full cold read, and once the arrival time passes the
// payload lands on the top tier — completion is applied lazily by
// whichever timed operation observes the clock first, so the store needs
// no clock of its own.
//
// Invariants the model keeps (fuzzed by FuzzPrefetch):
//   - a join is never charged more than the full source-tier read, and
//     the residual wait only shrinks as time advances;
//   - Remove cancels an in-flight transfer — a removed key is never
//     resurrected by a late completion;
//   - a chunk evicted from the hierarchy mid-flight is not re-inserted
//     at completion (the transfer's bytes are counted wasted instead).
package kvstore

import (
	"sort"

	"repro/internal/chunk"
)

// transfer is one in-flight prefetch promotion: id's payload is being
// copied from tier src to the top tier, completing at arrival.
type transfer struct {
	id        chunk.ID
	payload   Sized
	src       int
	bytes     int64
	arrival   float64
	seq       int  // issue order, breaking equal-arrival completion ties
	read      bool // a lookup joined the transfer in flight
	cancelled bool // superseded by Put or cancelled by Remove
}

// PrefetchStats counts the in-flight transfer model's activity.
type PrefetchStats struct {
	// Issued counts transfers started; Completed those whose payload
	// reached the top tier.
	Issued, Completed int64
	// Hits counts lookups a prefetch served: reads that found their chunk
	// promoted by a completed transfer (first read only), plus the
	// in-flight joins below.
	Hits int64
	// InflightJoins is the subset of Hits that arrived before the
	// transfer finished and paid only the residual wait.
	InflightJoins int64
	// BytesMoved is the payload bytes of all issued transfers.
	BytesMoved int64
	// BytesWasted counts moved bytes that never served a read: transfers
	// cancelled or orphaned mid-flight, and completed promotions undone
	// (demoted or removed) before any lookup touched them.
	BytesWasted int64
}

// Accuracy is Hits over Issued — the fraction of transfers that served at
// least one read. 0 with no transfers.
func (p PrefetchStats) Accuracy() float64 {
	if p.Issued == 0 {
		return 0
	}
	return float64(p.Hits) / float64(p.Issued)
}

// Prefetch schedules an asynchronous promotion of id from the cold tier
// it lives on to the top tier. The transfer is in flight until the
// returned arrival time: reads before then join it via GetAt and pay only
// the residual wait. bw is the loader's bandwidth budget as a fraction of
// the source tier's read bandwidth (0 or 1 = the full device). started is
// false when there is nothing to do — id absent, already on the top tier,
// or already in flight (arrival then reports the existing transfer's
// completion time).
func (t *Tiered) Prefetch(id chunk.ID, now, bw float64) (arrival float64, started bool) {
	t.advance(now)
	if tr, ok := t.flights[id]; ok {
		return tr.arrival, false
	}
	e := t.idx.m[id]
	if e == nil || e.store.tier == 0 {
		return 0, false // absent, or already hot
	}
	src, payload := e.store.tier, e.payload
	if bw <= 0 {
		bw = 1
	}
	bytes := payload.SizeBytes()
	t.flightSeq++
	tr := &transfer{
		id: id, payload: payload, src: src, bytes: bytes,
		arrival: now + t.cfg[src].Device.ReadTime(bytes)/bw,
		seq:     t.flightSeq,
	}
	t.flights[id] = tr
	t.flightQ = append(t.flightQ, tr)
	t.pf.Issued++
	t.pf.BytesMoved += bytes
	return tr.arrival, true
}

// GetAt is the prefetch-aware Get: it first applies every transfer due by
// now, then looks id up. A lookup that finds its chunk still in flight
// joins the transfer — it returns the residual wait (arrival − now), the
// only time the read should be charged, counts a hit on the source tier,
// and leaves the promotion to the transfer's completion. Any other lookup
// behaves exactly like Get.
func (t *Tiered) GetAt(id chunk.ID, now float64) (payload Sized, tier int, wait float64, ok bool) {
	t.advance(now)
	if tr, ok := t.flights[id]; ok {
		t.hits[tr.src]++
		t.pf.Hits++
		t.pf.InflightJoins++
		tr.read = true
		return tr.payload, tr.src, tr.arrival - now, true
	}
	payload, tier, ok = t.Get(id)
	if ok {
		if _, unread := t.unread[id]; unread {
			t.pf.Hits++ // first read of a completed prefetch: it paid off
			delete(t.unread, id)
		}
	}
	return payload, tier, 0, ok
}

// TierOf reports the tier index id currently lives on (-1 if absent)
// without touching recency, statistics or placement. The predictive
// prefetcher uses it to pick popular-but-cold candidates.
func (t *Tiered) TierOf(id chunk.ID) int {
	if e := t.idx.m[id]; e != nil {
		return e.store.tier
	}
	return -1
}

// Inflight reports how many transfers are currently in flight.
func (t *Tiered) Inflight() int {
	return len(t.flights)
}

// PrefetchStats snapshots the transfer-model counters.
func (t *Tiered) PrefetchStats() PrefetchStats {
	return t.pf
}

// advance applies every transfer due by now, in (arrival, issue)
// order so concurrent loaders complete deterministically.
func (t *Tiered) advance(now float64) {
	if len(t.flightQ) == 0 {
		return
	}
	var due []*transfer
	rest := t.flightQ[:0]
	for _, tr := range t.flightQ {
		switch {
		case tr.cancelled: // dropped from the queue
		case tr.arrival <= now:
			due = append(due, tr)
		default:
			rest = append(rest, tr)
		}
	}
	t.flightQ = rest
	sort.Slice(due, func(i, j int) bool {
		if due[i].arrival != due[j].arrival {
			return due[i].arrival < due[j].arrival
		}
		return due[i].seq < due[j].seq
	})
	for _, tr := range due {
		t.complete(tr)
	}
}

// complete lands one due transfer: the payload moves from wherever
// the chunk now lives to the top tier (the residence may have shifted
// under demotion cascades while in flight). A chunk that left the
// hierarchy mid-flight is NOT re-inserted — its bytes moved for nothing.
func (t *Tiered) complete(tr *transfer) {
	delete(t.flights, tr.id)
	e := t.idx.m[tr.id]
	switch {
	case e == nil:
		// Evicted while in flight: never resurrect.
		t.pf.BytesWasted += tr.bytes
		return
	case e.store.tier == 0:
		// Already hot (re-inserted ahead of the transfer): nothing to move.
		t.pf.Completed++
		return
	case !t.promote(e):
		t.pf.BytesWasted += tr.bytes
		return
	}
	t.pf.Completed++
	if !tr.read {
		t.unread[tr.id] = tr.bytes
	}
}

// Drain cancels every in-flight transfer and reports how many it
// aborted — the close semantics for a node that dies mid-run: its
// loader stops issuing, and the bytes already streaming toward the top
// tier count as wasted unless a join read them. The store itself stays
// readable (run-end statistics still aggregate over dead nodes); only
// the transfer table empties. Transfers are cancelled in issue order so
// the waste accounting is deterministic.
func (t *Tiered) Drain() int {
	n := 0
	for _, tr := range t.flightQ {
		if tr.cancelled {
			continue
		}
		t.cancel(tr.id)
		n++
	}
	t.flightQ = t.flightQ[:0]
	return n
}

// cancel aborts id's in-flight transfer, if any: Put supersedes the
// copy being moved, Remove releases the key outright. Bytes already
// streaming count as wasted unless a join read them.
func (t *Tiered) cancel(id chunk.ID) {
	tr, ok := t.flights[id]
	if !ok {
		return
	}
	tr.cancelled = true
	delete(t.flights, id)
	if !tr.read {
		t.pf.BytesWasted += tr.bytes
	}
}

// wasteUnread marks a completed-but-unread prefetch of id as undone
// — called when demotion, eviction or removal takes the promoted copy off
// the top tier before any lookup touched it.
func (t *Tiered) wasteUnread(id chunk.ID) {
	if b, ok := t.unread[id]; ok {
		t.pf.BytesWasted += b
		delete(t.unread, id)
	}
}
