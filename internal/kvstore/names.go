// Dense chunk handles. A chunk id is a 32-byte content hash (§5.1): the
// right name to store a KV cache under, but a slow key for the per-chunk
// state a run probes on every lookup. A Names table gives each id a dense
// Handle once per run, and every tier stack and popularity view built
// over the table indexes its per-chunk state by handle, so a probe is one
// slice load. The id stays readable through the table wherever bytes
// decide an output: the shard pick, the hash ring and the popularity
// tie-breaks.
package kvstore

import "repro/internal/chunk"

// Handle is a chunk's dense name in one Names table. Handles are issued
// from 0 up, and a released handle is issued again before the table
// grows.
type Handle uint32

// Names is a run-wide table from handle to chunk id, shared by every tier
// stack and popularity view built over it. An id holds at most one live
// handle, whichever path named it.
//
// Two paths name ids. Name is the serving runtime's: it names ids the
// caller knows hold no live handle, so it probes nothing. Intern is the
// chunk.ID methods' (Tiered.Get, Put and the rest): it returns the live
// handle an id already holds, through an id → handle map that exists only
// once Intern is first called. Built then from the live handles, and kept
// current from then on by both paths, the map is what lets them mix.
//
// Like the stores, a table belongs to one run and is not safe for
// concurrent use.
type Names struct {
	ids  []chunk.ID          // handle → id; a released handle's id is stale until reissued
	free []Handle            // released handles, reissued last-released first
	byID map[chunk.ID]Handle // id → live handle; nil until Intern first runs
}

// NewNames returns an empty table.
func NewNames() *Names { return &Names{} }

// Name issues id a handle. The caller must know id holds no live handle,
// as the serving runtime does: it names each workload chunk once, and each
// decode key once per admission. Once Intern has built the id map, Name
// keeps it current, and returns the live handle id already holds, if
// any.
func (n *Names) Name(id chunk.ID) Handle {
	if n.byID == nil {
		return n.issue(id)
	}
	return n.Intern(id)
}

// Intern returns id's live handle, naming id if it holds none. Its first
// call builds the id map from the live handles.
func (n *Names) Intern(id chunk.ID) Handle {
	if n.byID == nil {
		n.byID = make(map[chunk.ID]Handle, len(n.ids))
		released := make([]bool, len(n.ids))
		for _, h := range n.free {
			released[h] = true
		}
		for h, id := range n.ids {
			if !released[h] {
				n.byID[id] = Handle(h)
			}
		}
	}
	if h, ok := n.byID[id]; ok {
		return h
	}
	h := n.issue(id)
	n.byID[id] = h
	return h
}

// issue gives id a released handle, or the next new one. The table grows
// by doubling: past 256 elements append grows a slice of 32-byte ids by
// about 1.25×, and a run that names its ids one at a time would copy the
// table several times over.
func (n *Names) issue(id chunk.ID) Handle {
	if k := len(n.free); k > 0 {
		h := n.free[k-1]
		n.free = n.free[:k-1]
		n.ids[h] = id
		return h
	}
	if len(n.ids) == cap(n.ids) {
		grown := make([]chunk.ID, len(n.ids), max(64, 2*cap(n.ids)))
		copy(grown, n.ids)
		n.ids = grown
	}
	n.ids = append(n.ids, id)
	return Handle(len(n.ids) - 1)
}

// Release returns h for reissue. The caller must first clear every state
// a stack or view over the table holds for h: the serving runtime
// releases a decode key's handle right after its Remove, and never
// touches a popularity view with one.
func (n *Names) Release(h Handle) {
	if n.byID != nil {
		delete(n.byID, n.ids[h])
	}
	n.free = append(n.free, h)
}

// ID returns the id h names.
func (n *Names) ID(h Handle) chunk.ID { return n.ids[h] }

// Len returns the number of live handles.
func (n *Names) Len() int { return len(n.ids) - len(n.free) }

// Issued returns the number of distinct handles issued so far: every
// handle is below it. Released handles are reissued before a new one, so
// it is also the most handles ever live at once.
func (n *Names) Issued() int { return len(n.ids) }

// covering returns s, a handle-indexed slice, grown if need be to cover
// h: to the table's capacity, so the stacks and views over a table grow
// as seldom as the table does.
func covering[T any](s []T, h Handle, n *Names) []T {
	if int(h) < len(s) {
		return s
	}
	grown := make([]T, max(cap(n.ids), int(h)+1))
	copy(grown, s)
	return grown
}
