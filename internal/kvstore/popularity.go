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
// It is built over a Names table: its scores are a slice indexed by
// handle, and a list of the tracked handles is what Top and compaction
// walk. Touch names its chunk.ID and forwards to TouchH, the serving
// runtime's form. Like the stores, it belongs to one simulation run and
// is not safe for concurrent use.
type Popularity struct {
	halflife  float64
	max       int
	names     *Names
	scores    []popEntry // handle → score
	tracked   []Handle   // the handles whose entry is on, in no particular order
	topScores []float64  // Top's ranking scratch, parallel to the handles it appends
}

type popEntry struct {
	score float64 // decayed count as of last
	last  float64 // virtual time of the last update
	on    bool    // tracked
}

// NewPopularity creates an estimator over a Names table of its own whose
// scores halve every halflife seconds (≤ 0 disables decay) and that caps
// tracked chunks at maxEntries (≤ 0 = unbounded), batch-evicting the
// coldest quarter when full.
func NewPopularity(halflife float64, maxEntries int) *Popularity {
	return NewNames().NewPopularity(halflife, maxEntries)
}

// NewPopularity creates an estimator over n, as the package's
// NewPopularity does over a table of its own.
func (n *Names) NewPopularity(halflife float64, maxEntries int) *Popularity {
	return &Popularity{halflife: halflife, max: maxEntries, names: n}
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
func (p *Popularity) Touch(id chunk.ID, now float64) { p.TouchH(p.names.Intern(id), now) }

// TouchH is Touch by handle.
func (p *Popularity) TouchH(h Handle, now float64) {
	if int(h) < len(p.scores) {
		if e := &p.scores[h]; e.on {
			e.score = p.decayed(e, now) + 1
			if now > e.last {
				e.last = now
			}
			return
		}
	} else {
		p.scores = covering(p.scores, h, p.names)
	}
	if p.max > 0 && len(p.tracked) >= p.max {
		p.compact(now)
	}
	p.scores[h] = popEntry{score: 1, last: now, on: true}
	p.tracked = append(p.tracked, h)
}

// Score returns h's decayed score at now (0 if untracked).
func (p *Popularity) Score(h Handle, now float64) float64 {
	if int(h) >= len(p.scores) || !p.scores[h].on {
		return 0
	}
	return p.decayed(&p.scores[h], now)
}

// Len returns the number of tracked chunks.
func (p *Popularity) Len() int {
	return len(p.tracked)
}

// Top appends to dst up to k tracked handles passing keep (nil = all),
// hottest first, and returns the extended slice; k ≤ 0 ranks every such
// handle. Ties break on id bytes, read through the table, so the ranking
// is deterministic and independent of the order handles were issued or
// tracked in. One pass over the tracked entries keeps the k best in
// order, so the small k the predictive prefetcher asks for costs a linear
// scan and no allocation.
//
// Once k entries are kept, an entry whose stored score is below the k-th
// kept score is skipped before keep or the decay runs: scores are never
// negative and decay multiplies by at most 1, so its decayed score is
// lower still and could not rank. keep is therefore not called for every
// entry, and must be a pure predicate.
func (p *Popularity) Top(dst []Handle, now float64, k int, keep func(Handle) bool) []Handle {
	base := len(dst)
	scores := p.topScores[:0]
	for _, h := range p.tracked {
		e := &p.scores[h]
		if k > 0 && len(scores) == k && e.score < scores[k-1] {
			continue
		}
		if keep != nil && !keep(h) {
			continue
		}
		s := p.decayed(e, now)
		// i is the rank the entry takes among those kept so far.
		i := len(scores)
		for i > 0 && p.hotter(s, h, scores[i-1], dst[base+i-1]) {
			i--
		}
		if k > 0 && i >= k {
			continue
		}
		if k <= 0 || len(scores) < k {
			scores = append(scores, 0)
			dst = append(dst, 0)
		}
		// Shift the colder entries down one rank, dropping the last when full.
		copy(scores[i+1:], scores[i:len(scores)-1])
		copy(dst[base+i+1:], dst[base+i:len(dst)-1])
		scores[i], dst[base+i] = s, h
	}
	p.topScores = scores
	return dst
}

// hotter reports whether (s, h) ranks before (t, other): higher score
// first, then lower id bytes.
func (p *Popularity) hotter(s float64, h Handle, t float64, other Handle) bool {
	if s != t {
		return s > t
	}
	return p.idLess(h, other)
}

// idLess orders two handles by the bytes of the ids they name.
func (p *Popularity) idLess(a, b Handle) bool {
	ids := p.names.ids
	return bytes.Compare(ids[a][:], ids[b][:]) < 0
}

// compact evicts the coldest tracked chunks down to 3/4 of the cap,
// deterministically (score asc, then id bytes) so capped runs stay
// seed-stable.
func (p *Popularity) compact(now float64) {
	type ranked struct {
		h     Handle
		score float64
	}
	all := make([]ranked, 0, len(p.tracked))
	for _, h := range p.tracked {
		all = append(all, ranked{h, p.decayed(&p.scores[h], now)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score < all[j].score
		}
		return p.idLess(all[i].h, all[j].h)
	})
	if drop := len(all) - p.max*3/4; drop > 0 {
		for _, r := range all[:drop] {
			p.scores[r.h] = popEntry{}
		}
		kept := p.tracked[:0]
		for _, h := range p.tracked {
			if p.scores[h].on {
				kept = append(kept, h)
			}
		}
		p.tracked = kept
	}
}
