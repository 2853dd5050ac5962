// The cache-affinity replica router: the cluster-scale layer in front of
// admission. The shared topology models a single node — every replica
// pulls from one shared queue and hits one shared KV store. Production
// RAG serving partitions the cache instead (RAGCache's "knowledge caching
// as a service"): each replica is a node with its own tier hierarchy, and
// a router decides which node a request lands on. That decision is the
// lever deciding how often CacheBlend's fused-cache fast path fires at
// all: selective recompute only pays when the request reaches a replica
// that actually holds its chunks.
//
// Three policies are selectable via Config.Router:
//
//   - shared: the single-store topology, and the default (an empty
//     Config.Router means the same).
//   - hash: consistent chunk→replica hashing. Each chunk id owns a point
//     set on a hash ring; a request routes to the replica owning the
//     plurality of its chunks. Stateless and balanced, but a request's
//     chunk set usually straddles owners, so the chunks the landing
//     replica does not own are re-inserted there — cross-replica
//     duplication the Result reports in DuplicationBytes.
//   - affinity: score every replica by overlap between the request's
//     chunk set and the replica's resident set, plus a decayed-popularity
//     estimate of what the replica has been serving (the same
//     kvstore.Popularity signal predictive prefetch ranks with), minus an
//     in-flight load penalty so a hot replica sheds load before it
//     melts. Routing a request then touches the winner's popularity view
//     with the request's chunks — the chunk→replica affinity map is built
//     from the workload itself.
package serve

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"repro/internal/baselines"
	"repro/internal/chunk"
)

// Router policy names accepted by Config.Router.
const (
	// RouterShared is one KV store and one admission queue shared by
	// every replica (a single node) — the default, which an empty
	// Config.Router also selects.
	RouterShared = "shared"
	// RouterHash partitions by consistent chunk→replica hashing: each
	// replica owns ringVnodes points on a hash ring, a chunk belongs to
	// the replica owning the next point clockwise of its id, and a
	// request routes to the plurality owner of its chunk set (lowest
	// replica index on ties).
	RouterHash = "hash"
	// RouterAffinity scores replicas by chunk-set overlap: resident
	// chunks count 1, non-resident chunks count their decayed popularity
	// on that replica (capped at 1) scaled by affinityPopWeight, and
	// each request in flight at the replica subtracts
	// affinityLoadPenalty. The highest score wins (lowest replica index
	// on ties).
	RouterAffinity = "affinity"
)

const (
	// ringVnodes is each replica's virtual-node count on the hash ring.
	// Enough points to smooth per-replica ownership to a few percent
	// without making owner lookup measurably slower.
	ringVnodes = 64
	// affinityPopWeight scales the popularity term of the affinity score:
	// a chunk the replica served recently but no longer holds (evicted,
	// demoted) still attracts its requests, which is what keeps a
	// tenant's traffic sticky through cache churn. Below 1 so a chunk
	// actually resident always outranks a remembered one.
	affinityPopWeight = 0.5
	// affinityLoadPenalty is the score cost of each request in flight at
	// a replica (routed there, not yet retired — queued and in-batch
	// alike), in chunk-overlap units: a replica ~2 requests deeper than a
	// rival forfeits one resident chunk's worth of affinity, so skewed
	// corpora spill to neighbours instead of piling onto one node
	// unboundedly, and an empty cluster spreads its first requests
	// round-robin-ish instead of dogpiling replica 0.
	affinityLoadPenalty = 0.5
)

// routed reports whether requests are actually routed to per-replica
// stores and queues (hash or affinity).
func (c Config) routed() bool {
	return c.Router == RouterHash || c.Router == RouterAffinity
}

// validateRouter is the Config.Validate slice for the router fields.
func (c Config) validateRouter() error {
	switch c.Router {
	case "", RouterShared, RouterHash, RouterAffinity:
	default:
		return fmt.Errorf("router policy %q: want %s, %s or %s",
			c.Router, RouterShared, RouterHash, RouterAffinity)
	}
	if c.routed() {
		switch c.Scheme {
		case baselines.FullKVReuse, baselines.CacheBlend:
		default:
			return fmt.Errorf("router policy %q routes by chunk-set affinity and only applies to chunk-reusing schemes (got %q)",
				c.Router, c.Scheme)
		}
	}
	return nil
}

// ringPoint is one virtual node: a replica's claim on the hash ring.
type ringPoint struct {
	hash    uint64
	replica int
}

// hashRing is a consistent-hash ring over the replica set. A chunk id
// belongs to the replica owning the first point at or clockwise of the
// id's leading 8 hash bytes. Consistent hashing (rather than id mod N)
// keeps ownership stable when the replica set changes — the property the
// ROADMAP's scale-out item will lean on.
type hashRing struct {
	points []ringPoint
}

// remove deletes replica r's virtual nodes from the ring — the
// membership-kill path. Only the dead replica's points leave, so every
// chunk a survivor owned keeps its owner (the stability property
// TestHashRingStability pins); chunks the dead replica owned fall to
// the next live point clockwise.
func (h *hashRing) remove(replica int) {
	pts := h.points[:0]
	for _, pt := range h.points {
		if pt.replica != replica {
			pts = append(pts, pt)
		}
	}
	h.points = pts
}

// add inserts replica r's virtual nodes, deterministically: the chunk
// hashes of ("router/vnode", [r, v]). The points are sorted by (hash,
// replica), a total order, so a ring is the same whatever order its
// replicas joined in: ownership moves only onto a newcomer, and a ring
// that removes then re-adds a replica is restored bit for bit.
func (h *hashRing) add(replica int) {
	for v := 0; v < ringVnodes; v++ {
		id := chunk.Hash("router/vnode", []int{replica, v})
		h.points = append(h.points, ringPoint{
			hash:    binary.LittleEndian.Uint64(id[:8]),
			replica: replica,
		})
	}
	slices.SortFunc(h.points, func(a, b ringPoint) int {
		if a.hash != b.hash {
			return cmp.Compare(a.hash, b.hash)
		}
		return cmp.Compare(a.replica, b.replica)
	})
}

// owner returns the replica owning id on the ring.
func (h *hashRing) owner(id chunk.ID) int {
	key := binary.LittleEndian.Uint64(id[:8])
	i := sort.Search(len(h.points), func(i int) bool { return h.points[i].hash >= key })
	if i == len(h.points) {
		i = 0 // wrap: past the highest point, ownership circles to the first
	}
	return h.points[i].replica
}

// route picks the node (and with it the store, queues and loader) an
// arriving request is dispatched to, by its index in nodes. One node
// leaves nothing to decide.
func (c *cluster) route(req request, now float64) int {
	if len(c.nodes) == 1 {
		return 0
	}
	switch c.cfg.Router {
	case RouterHash:
		return c.routeHash(req)
	case RouterAffinity:
		return c.routeAffinity(req, now)
	}
	return 0
}

// routeHash routes to the plurality owner of the request's chunk set,
// breaking ties toward the lowest live replica index. A chunkless
// request (possible in replayed traces) has no owner to hash toward and
// goes to the least-loaded live node — indexing by request count was
// both stale under membership change (the node count moves) and blind
// to load.
func (c *cluster) routeHash(req request) int {
	if len(req.ids) == 0 {
		return c.leastLoaded()
	}
	if cap(c.cntScratch) < len(c.nodes) {
		c.cntScratch = make([]int, len(c.nodes))
	}
	counts := c.cntScratch[:len(c.nodes)]
	for i := range counts {
		counts[i] = 0
	}
	for _, id := range req.ids {
		counts[c.ring.owner(c.names.ID(c.chunkKeyOf(id)))]++
	}
	best := -1
	for r, k := range counts {
		if c.nodes[r].live == 0 {
			continue
		}
		if best < 0 || k > counts[best] {
			best = r
		}
	}
	return best
}

// leastLoaded returns the live node with the fewest requests in flight
// (routed, not yet retired), lowest index on ties — the placement for
// requests with no chunk set to route by.
func (c *cluster) leastLoaded() int {
	best := -1
	for r, n := range c.nodes {
		if n.live == 0 {
			continue
		}
		if best < 0 || n.inflight < c.nodes[best].inflight {
			best = r
		}
	}
	return best
}

// routeAffinity scores every replica against the request's chunk set and
// routes to the argmax (lowest index on ties), then touches the winner's
// popularity view with the chunks — the routed-traffic history that makes
// future requests for the same corpus stick to the same replica even as
// individual chunks churn through the tiers.
func (c *cluster) routeAffinity(req request, now float64) int {
	keys := c.keyScratch[:0] // scratch: route runs without a park, so no aliasing
	for _, id := range req.ids {
		keys = append(keys, c.chunkKeyOf(id))
	}
	c.keyScratch = keys[:0]
	best, bestScore := -1, 0.0
	for r, n := range c.nodes {
		if n.live == 0 {
			continue // a dark node never scores, whatever it still holds
		}
		score := -affinityLoadPenalty * float64(n.inflight)
		for _, key := range keys {
			if n.store.Contains(key) {
				score++
				continue
			}
			if s := n.pop.Score(key, now); s > 0 {
				if s > 1 {
					s = 1
				}
				score += affinityPopWeight * s
			}
		}
		if best < 0 || score > bestScore {
			best, bestScore = r, score
		}
	}
	for _, key := range keys {
		c.nodes[best].pop.TouchH(key, now)
	}
	return best
}
