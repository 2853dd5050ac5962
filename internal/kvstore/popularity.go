// Popularity estimator for predictive prefetch: exponentially decayed hit
// counts per chunk, shared by a replica group's loaders. The workload
// generators drift their Zipf ranking over time, so raw cumulative counts
// would keep prefetching yesterday's hot set; halving each score every
// Halflife seconds of virtual time makes the ranking follow the drift.
package kvstore

import (
	"bytes"
	"math"
	"sort"

	"repro/internal/chunk"
)

// Popularity tracks per-chunk access scores with exponential time decay.
// Like the stores, it belongs to one simulation run and is not safe for
// concurrent use.
type Popularity struct {
	halflife  float64
	max       int
	scores    map[chunk.ID]*popEntry
	topScores []float64 // Top's ranking scratch, parallel to the ids it appends
}

type popEntry struct {
	score float64 // decayed count as of last
	last  float64 // virtual time of the last update
}

// NewPopularity creates an estimator whose scores halve every halflife
// seconds (≤ 0 disables decay) and that caps tracked chunks at maxEntries
// (≤ 0 = unbounded), batch-evicting the coldest quarter when full.
func NewPopularity(halflife float64, maxEntries int) *Popularity {
	return &Popularity{
		halflife: halflife,
		max:      maxEntries,
		scores:   make(map[chunk.ID]*popEntry),
	}
}

// decayed returns e's score brought forward to now. The clock never runs
// backwards in a run, but a stale now must not inflate the score, so
// negative elapsed time decays nothing.
func (p *Popularity) decayed(e *popEntry, now float64) float64 {
	if p.halflife <= 0 {
		return e.score
	}
	dt := now - e.last
	if dt <= 0 {
		return e.score
	}
	return e.score * math.Exp2(-dt/p.halflife)
}

// Touch records one access to id at virtual time now.
func (p *Popularity) Touch(id chunk.ID, now float64) {
	if e, ok := p.scores[id]; ok {
		e.score = p.decayed(e, now) + 1
		if now > e.last {
			e.last = now
		}
		return
	}
	if p.max > 0 && len(p.scores) >= p.max {
		p.compact(now)
	}
	p.scores[id] = &popEntry{score: 1, last: now}
}

// Score returns id's decayed score at now (0 if untracked).
func (p *Popularity) Score(id chunk.ID, now float64) float64 {
	e, ok := p.scores[id]
	if !ok {
		return 0
	}
	return p.decayed(e, now)
}

// Len returns the number of tracked chunks.
func (p *Popularity) Len() int {
	return len(p.scores)
}

// Top appends to dst up to k tracked ids passing keep (nil = all),
// hottest first, and returns the extended slice; k ≤ 0 ranks every such
// id. Ties break on id bytes so the ranking is deterministic. One pass
// over the tracked entries keeps the k best in order, so the small k the
// predictive prefetcher asks for costs a linear scan and no allocation.
func (p *Popularity) Top(dst []chunk.ID, now float64, k int, keep func(chunk.ID) bool) []chunk.ID {
	base := len(dst)
	scores := p.topScores[:0]
	for id, e := range p.scores {
		if keep != nil && !keep(id) {
			continue
		}
		s := p.decayed(e, now)
		// i is the rank the entry takes among those kept so far.
		i := len(scores)
		for i > 0 && hotter(s, id, scores[i-1], dst[base+i-1]) {
			i--
		}
		if k > 0 && i >= k {
			continue
		}
		if k <= 0 || len(scores) < k {
			scores = append(scores, 0)
			dst = append(dst, chunk.ID{})
		}
		// Shift the colder entries down one rank, dropping the last when full.
		copy(scores[i+1:], scores[i:len(scores)-1])
		copy(dst[base+i+1:], dst[base+i:len(dst)-1])
		scores[i], dst[base+i] = s, id
	}
	p.topScores = scores
	return dst
}

// hotter reports whether (s, id) ranks before (t, other): higher score
// first, then lower id bytes.
func hotter(s float64, id chunk.ID, t float64, other chunk.ID) bool {
	if s != t {
		return s > t
	}
	return bytes.Compare(id[:], other[:]) < 0
}

// compact evicts the coldest tracked chunks down to 3/4 of the cap,
// deterministically (score asc, then id bytes) so capped runs stay
// seed-stable.
func (p *Popularity) compact(now float64) {
	type ranked struct {
		id    chunk.ID
		score float64
	}
	all := make([]ranked, 0, len(p.scores))
	for id, e := range p.scores {
		all = append(all, ranked{id, p.decayed(e, now)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score < all[j].score
		}
		return bytes.Compare(all[i].id[:], all[j].id[:]) < 0
	})
	target := p.max * 3 / 4
	for _, r := range all {
		if len(p.scores) <= target {
			break
		}
		delete(p.scores, r.id)
	}
}
