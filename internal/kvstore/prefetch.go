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
	"cmp"
	"math"
	"slices"

	"repro/internal/chunk"
)

// transfer is one in-flight prefetch promotion: h's payload is being
// copied from tier src to the top tier, completing at arrival. It lives
// in a slot of its stack's table until it lands or is cancelled.
type transfer struct {
	h       Handle
	payload Sized
	src     int
	bytes   int64
	arrival float64
	seq     int  // issue order, breaking equal-arrival completion ties; 0: a free slot
	read    bool // a lookup joined the transfer in flight
}

// queued is a transfer's place in issue order: its slot and seq. Once
// the slot no longer holds that seq, the transfer was cancelled (Put,
// Remove or Drain), and the entry is dropped.
type queued struct {
	slot uint32
	seq  int
}

// PrefetchStats counts the in-flight transfer model's activity.
type PrefetchStats struct {
	// Issued counts transfers started; Completed those whose payload
	// reached the top tier.
	Issued, Completed int64
	// Hits counts lookups a prefetch served: reads that found their chunk
	// promoted by a completed transfer (first read only), plus the
	// in-flight joins below. Every join counts, so one transfer can serve
	// several hits, and Hits can exceed Issued.
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

// Prefetch schedules an asynchronous promotion of id from the cold tier
// it lives on to the top tier. The transfer is in flight until the
// returned arrival time: reads before then join it via GetAt and pay only
// the residual wait. bw is the loader's bandwidth budget as a fraction of
// the source tier's read bandwidth (0 or 1 = the full device). started is
// false when there is nothing to do — id absent, already on the top tier,
// or already in flight (arrival then reports the existing transfer's
// completion time).
func (t *Tiered) Prefetch(id chunk.ID, now, bw float64) (arrival float64, started bool) {
	return t.PrefetchH(t.names.Intern(id), now, bw)
}

// PrefetchH is Prefetch by handle.
func (t *Tiered) PrefetchH(h Handle, now, bw float64) (arrival float64, started bool) {
	t.advance(now)
	if tr := t.flight(h); tr != nil {
		return tr.arrival, false
	}
	e := t.idx.get(h)
	if e == nil || e.store.tier == 0 {
		return 0, false // absent, or already hot
	}
	src, payload := e.store.tier, e.payload
	if bw <= 0 {
		bw = 1
	}
	bytes := payload.SizeBytes()
	arrival = now + t.cfg[src].Device.ReadTime(bytes)/bw
	t.flightSeq++
	s := t.slot()
	t.slots[s] = transfer{h: h, payload: payload, src: src, bytes: bytes, arrival: arrival, seq: t.flightSeq}
	t.flights = covering(t.flights, h, t.names)
	t.flights[h] = s + 1
	if arrival < t.nextDue { // a NaN arrival is never due
		t.nextDue = arrival
	}
	t.flightQ = append(t.flightQ, queued{slot: s, seq: t.flightSeq})
	t.pf.Issued++
	t.pf.BytesMoved += bytes
	return arrival, true
}

// slot takes a free slot for a new transfer, growing the table if none
// is free.
func (t *Tiered) slot() uint32 {
	if k := len(t.free); k > 0 {
		s := t.free[k-1]
		t.free = t.free[:k-1]
		return s
	}
	t.slots = append(t.slots, transfer{})
	return uint32(len(t.slots) - 1)
}

// release ends slot s's transfer: its handle has none in flight, and the
// slot is free for reuse.
func (t *Tiered) release(s uint32) {
	t.flights[t.slots[s].h] = 0
	t.slots[s] = transfer{}
	t.free = append(t.free, s)
}

// GetAt is the prefetch-aware Get: it first applies every transfer due by
// now, then looks id up. A lookup that finds its chunk still in flight
// joins the transfer — it returns the residual wait (arrival − now), the
// only time the read should be charged, counts a hit on the source tier,
// and leaves the promotion to the transfer's completion. Any other lookup
// behaves exactly like Get.
func (t *Tiered) GetAt(id chunk.ID, now float64) (payload Sized, tier int, wait float64, ok bool) {
	return t.GetAtH(t.names.Intern(id), now)
}

// GetAtH is GetAt by handle.
func (t *Tiered) GetAtH(h Handle, now float64) (payload Sized, tier int, wait float64, ok bool) {
	t.advance(now)
	if tr := t.flight(h); tr != nil {
		t.hits[tr.src]++
		t.pf.Hits++
		t.pf.InflightJoins++
		tr.read = true
		return tr.payload, tr.src, tr.arrival - now, true
	}
	payload, tier, ok = t.GetH(h)
	if ok && int(h) < len(t.unread) && t.unread[h] != 0 {
		t.pf.Hits++ // first read of a completed prefetch: it paid off
		t.unread[h] = 0
	}
	return payload, tier, 0, ok
}

// flight returns h's transfer in flight, or nil. The pointer is good
// until the next transfer starts.
func (t *Tiered) flight(h Handle) *transfer {
	if int(h) < len(t.flights) {
		if s := t.flights[h]; s != 0 {
			return &t.slots[s-1]
		}
	}
	return nil
}

// TierOf reports the tier index h currently lives on (-1 if absent)
// without touching recency, statistics or placement. The predictive
// prefetcher uses it to pick popular-but-cold candidates.
func (t *Tiered) TierOf(h Handle) int {
	if e := t.idx.get(h); e != nil {
		return e.store.tier
	}
	return -1
}

// Inflight reports how many transfers are currently in flight.
func (t *Tiered) Inflight() int {
	return len(t.slots) - len(t.free)
}

// PrefetchStats snapshots the transfer-model counters.
func (t *Tiered) PrefetchStats() PrefetchStats {
	return t.pf
}

// advance applies every transfer due by now. It returns at once while now
// is before the queue's earliest arrival, unless the queue has grown past
// twice the slot table: only cancelled entries make it longer than the
// table, and land's pass over the queue drops them.
func (t *Tiered) advance(now float64) {
	if now >= t.nextDue || len(t.flightQ) > 2*len(t.slots) {
		t.land(now)
	}
}

// land completes every transfer due by now, in (arrival, issue) order so
// concurrent loaders complete deterministically. seq is unique, so the
// order is total and any correct sort gives it. complete neither cancels
// a transfer nor calls advance, so the due list lives in a scratch slice.
func (t *Tiered) land(now float64) {
	due, rest, next := t.due[:0], t.flightQ[:0], math.Inf(1)
	for _, q := range t.flightQ {
		tr := &t.slots[q.slot]
		switch {
		case tr.seq != q.seq: // cancelled: dropped from the queue
		case tr.arrival <= now:
			due = append(due, q.slot)
		default:
			rest = append(rest, q)
			if tr.arrival < next { // a NaN arrival is never due
				next = tr.arrival
			}
		}
	}
	t.flightQ, t.nextDue = rest, next
	slices.SortFunc(due, func(a, b uint32) int {
		x, y := &t.slots[a], &t.slots[b]
		if x.arrival != y.arrival {
			return cmp.Compare(x.arrival, y.arrival)
		}
		return cmp.Compare(x.seq, y.seq)
	})
	for _, s := range due {
		t.complete(s)
	}
	t.due = due[:0]
}

// complete lands slot s's due transfer: the payload moves from wherever
// the chunk now lives to the top tier (the residence may have shifted
// under demotion cascades while in flight). A chunk that left the
// hierarchy mid-flight is NOT re-inserted — its bytes moved for nothing.
func (t *Tiered) complete(s uint32) {
	tr := t.slots[s]
	t.release(s)
	e := t.idx.get(tr.h)
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
		t.unread = covering(t.unread, tr.h, t.names)
		t.unread[tr.h] = 1 + tr.bytes
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
	for _, q := range t.flightQ {
		if tr := &t.slots[q.slot]; tr.seq == q.seq {
			t.cancel(tr.h)
			n++
		}
	}
	t.flightQ, t.nextDue = t.flightQ[:0], math.Inf(1)
	return n
}

// cancel aborts h's in-flight transfer, if any: Put supersedes the
// copy being moved, Remove releases the key outright. Bytes already
// streaming count as wasted unless a join read them. The transfer's
// queue entry stays behind until land or Drain drops it.
func (t *Tiered) cancel(h Handle) {
	tr := t.flight(h)
	if tr == nil {
		return
	}
	if !tr.read {
		t.pf.BytesWasted += tr.bytes
	}
	t.release(t.flights[h] - 1)
}

// wasteUnread marks a completed-but-unread prefetch of h as undone
// — called when demotion, eviction or removal takes the promoted copy off
// the top tier before any lookup touched it.
func (t *Tiered) wasteUnread(h Handle) {
	if int(h) < len(t.unread) {
		if m := t.unread[h]; m != 0 {
			t.pf.BytesWasted += m - 1
			t.unread[h] = 0
		}
	}
}
