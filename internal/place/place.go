// Package place is the shared session-placement index: given a client's
// home endpoint, which repository should serve it?
//
// Before this package existed every serving layer answered the question
// with its own linear machinery — the simulator fleet sorted the *entire*
// repository population by delay once per session (O(R log R) per
// admission) and walked the full order on every placement. That is fine
// for hundreds of sessions and fatal for a million. The index replaces it
// with three pieces:
//
//   - Delay-bucketed candidate lists per home endpoint. The nearest-first
//     (delay, id) order from one home is a property of the topology, not
//     of any session, so it is computed once per home — lazily, on the
//     first admission from that home — and shared by every session there.
//     Candidates at the same quantized delay form one bucket; the walk
//     touches buckets nearest-first and stops at the first fit, so the
//     common admission enumerates O(k) candidates instead of O(R).
//   - A consistent-hash overflow ring under the session cap (optional,
//     RingSlots > 0). When the nearest buckets are all full, walking the
//     remaining order degenerates to the old linear scan; the ring
//     instead spreads overflow sessions hash-uniformly across the repos
//     that still have room, in O(probe) time. The ring is a *policy*
//     change (overflow lands by hash, not by distance), so concrete
//     client populations keep it off to preserve their historical
//     placements; synthetic populations turn it on at scale.
//   - The legacy fallbacks, stated once: initial placement falls back to
//     the least-loaded live repository when every repository is at cap
//     (the population always starts fully placed), and later placements
//     (migration, re-arrival) return NoID instead — the session is
//     orphaned until capacity returns.
//
// The index owns only topology-derived state. Liveness, load and serving
// stringency belong to the fleets; they are consulted through the State
// and serves callbacks, so the index itself holds no serving state.
package place

import (
	"sort"

	"d3t/internal/netsim"
	"d3t/internal/repository"
)

// State answers the placement walk's per-repository questions: liveness,
// cap room, and current load. Implementations are the fleets' own
// bookkeeping; calls must be cheap (the walk makes O(k) of them).
type State interface {
	// Alive reports whether the repository is up.
	Alive(id repository.ID) bool
	// HasRoom reports whether the repository's session cap leaves room
	// for one more session.
	HasRoom(id repository.ID) bool
	// Load returns the repository's current session count (the
	// least-loaded overflow fallback compares it).
	Load(id repository.ID) int
}

// Options parameterizes an Index.
type Options struct {
	// RingSlots enables the consistent-hash overflow ring with this many
	// virtual nodes per repository (0 disables the ring and preserves the
	// legacy nearest-first overflow order exactly). 16 is a reasonable
	// value: the standard deviation of the per-repo overflow share decays
	// with 1/sqrt(slots).
	RingSlots int
	// RingAfter caps how many nearest candidates the walk tries before
	// giving up on locality and probing the ring (default 16; only
	// meaningful with RingSlots > 0).
	RingAfter int
}

// Index is the sharded placement index over one physical topology. The
// per-home candidate orders are built lazily and cached; the ring is
// built eagerly (it is O(repos * slots)). An Index is not safe for
// concurrent mutation; fleets serialize placement exactly as they
// serialize admission.
type Index struct {
	net  *netsim.Network
	n    int // repositories, ids 1..n
	opts Options

	// orders[home-1] is the cached nearest-first (delay, id) candidate
	// order from that home endpoint; nil until first use. buckets[home-1]
	// holds the end offset of each equal-delay bucket (diagnostics and
	// tests; the walk itself only needs the flat order).
	orders  [][]repository.ID
	buckets [][]int

	// ring is the consistent-hash overflow ring, sorted by point. Empty
	// when RingSlots == 0.
	ring []ringEntry

	// builds and walked count order constructions and candidates
	// enumerated — the O(k) contract's instrumentation (see
	// TestPlaceEnumeratesNearestOnly).
	builds int
	walked int
}

type ringEntry struct {
	point uint32
	id    repository.ID
}

// NoPos marks a placement that was not reached by walking the nearest-
// first order (ring overflow or least-loaded fallback): there is no
// meaningful candidate-walk prefix to charge a redirect to.
const NoPos = -1

// New builds an index over endpoints 1..repos of the network.
func New(net *netsim.Network, repos int, opts Options) *Index {
	if opts.RingAfter <= 0 {
		opts.RingAfter = 16
	}
	ix := &Index{
		net:     net,
		n:       repos,
		opts:    opts,
		orders:  make([][]repository.ID, repos),
		buckets: make([][]int, repos),
	}
	if opts.RingSlots > 0 {
		ix.ring = make([]ringEntry, 0, repos*opts.RingSlots)
		for id := 1; id <= repos; id++ {
			for s := 0; s < opts.RingSlots; s++ {
				ix.ring = append(ix.ring, ringEntry{
					point: ringPoint(uint32(id), uint32(s)),
					id:    repository.ID(id),
				})
			}
		}
		sort.Slice(ix.ring, func(i, j int) bool {
			if ix.ring[i].point != ix.ring[j].point {
				return ix.ring[i].point < ix.ring[j].point
			}
			return ix.ring[i].id < ix.ring[j].id
		})
	}
	return ix
}

// Order returns the nearest-first (delay, id) candidate order from the
// home endpoint, building and caching it on first use. The slice is
// shared: callers must not mutate it.
func (ix *Index) Order(home repository.ID) []repository.ID {
	o := ix.orders[home-1]
	if o != nil {
		return o
	}
	ix.builds++
	o = make([]repository.ID, ix.n)
	for i := range o {
		o[i] = repository.ID(i + 1)
	}
	delay := ix.net.Delay[home]
	sort.SliceStable(o, func(i, j int) bool {
		di, dj := delay[o[i]], delay[o[j]]
		if di != dj {
			return di < dj
		}
		return o[i] < o[j]
	})
	// Record the equal-delay bucket boundaries (end offsets).
	var ends []int
	for i := 1; i <= len(o); i++ {
		if i == len(o) || delay[o[i]] != delay[o[i-1]] {
			ends = append(ends, i)
		}
	}
	ix.orders[home-1] = o
	ix.buckets[home-1] = ends
	return o
}

// Buckets returns the cached equal-delay bucket end offsets for home
// (building the order if needed) — diagnostics for tests and docs.
func (ix *Index) Buckets(home repository.ID) []int {
	ix.Order(home)
	return ix.buckets[home-1]
}

// Place runs the full placement walk for a session homed at home:
//
//  1. With serves != nil (migration and re-arrival), the first pass
//     requires the candidate to serve every watched item at the client's
//     stringency; it walks nearest-first over live candidates with room.
//  2. The second pass drops the serving requirement rather than strand
//     the session.
//  3. With the ring enabled, a pass that has tried RingAfter nearest
//     candidates without a fit jumps to the consistent-hash ring at
//     key's point and probes for any live candidate with room.
//  4. If nothing has room: initial placement falls back to the least
//     loaded live repository (nearest-first tie-break) so the population
//     always starts fully placed; later placements return NoID.
//
// exclude names the repository the session is leaving (NoID when none).
// The returned pos is the target's position in Order(home) when it was
// found by the nearest-first walk — the admission latency walk's length —
// or NoPos for ring/fallback placements.
func (ix *Index) Place(st State, home, exclude repository.ID, key uint32, serves func(repository.ID) bool, initial bool) (target repository.ID, pos int) {
	if !initial && serves != nil {
		if id, p := ix.walk(st, home, exclude, key, serves); id != repository.NoID {
			return id, p
		}
	}
	if id, p := ix.walk(st, home, exclude, key, nil); id != repository.NoID {
		return id, p
	}
	if initial {
		return ix.leastLoaded(st, home), NoPos
	}
	return repository.NoID, NoPos
}

// walk is one nearest-first pass: the first live, non-excluded candidate
// with room (and passing serves, when given) wins. With the ring enabled
// the pass abandons locality after RingAfter tries and probes the ring.
func (ix *Index) walk(st State, home, exclude repository.ID, key uint32, serves func(repository.ID) bool) (repository.ID, int) {
	order := ix.Order(home)
	limit := len(order)
	ringed := len(ix.ring) > 0
	if ringed && ix.opts.RingAfter < limit {
		limit = ix.opts.RingAfter
	}
	for i := 0; i < limit; i++ {
		cand := order[i]
		ix.walked++
		if cand == exclude || !st.Alive(cand) || !st.HasRoom(cand) {
			continue
		}
		if serves != nil && !serves(cand) {
			continue
		}
		return cand, i
	}
	if ringed {
		if id := ix.probeRing(st, exclude, key, serves); id != repository.NoID {
			return id, NoPos
		}
	}
	return repository.NoID, NoPos
}

// probeRing walks the consistent-hash ring clockwise from key's point and
// returns the first live repository with room (passing serves, when
// given). Virtual nodes of the same repository are skipped after the
// first rejection via a small probe budget: the ring has RingSlots
// entries per repo, so a full revolution visits every repo.
func (ix *Index) probeRing(st State, exclude repository.ID, key uint32, serves func(repository.ID) bool) repository.ID {
	n := len(ix.ring)
	start := sort.Search(n, func(i int) bool { return ix.ring[i].point >= key })
	for i := 0; i < n; i++ {
		e := ix.ring[(start+i)%n]
		if e.id == exclude || !st.Alive(e.id) || !st.HasRoom(e.id) {
			continue
		}
		if serves != nil && !serves(e.id) {
			continue
		}
		return e.id
	}
	return repository.NoID
}

// leastLoaded returns the least-loaded live repository, ties resolved by
// the nearest-first order — the initial-placement overflow fallback.
func (ix *Index) leastLoaded(st State, home repository.ID) repository.ID {
	best := repository.NoID
	bestLoad := 0
	for _, cand := range ix.Order(home) {
		if !st.Alive(cand) {
			continue
		}
		if best == repository.NoID || st.Load(cand) < bestLoad {
			best, bestLoad = cand, st.Load(cand)
		}
	}
	return best
}

// Builds returns how many per-home candidate orders have been
// constructed; Walked returns how many candidates every placement walk
// together has enumerated. Both are the O(k) contract's test hooks.
func (ix *Index) Builds() int { return ix.builds }
func (ix *Index) Walked() int { return ix.walked }

// Key hashes a session name onto the overflow ring (FNV-1a) — the same
// hash family the ingest layer shards items with.
func Key(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return h
}

// ringPoint spreads a repository's virtual nodes over the ring: FNV-1a
// over the (id, slot) pair's bytes.
func ringPoint(id, slot uint32) uint32 {
	h := uint32(2166136261)
	for _, b := range [8]byte{
		byte(id), byte(id >> 8), byte(id >> 16), byte(id >> 24),
		byte(slot), byte(slot >> 8), byte(slot >> 16), byte(slot >> 24),
	} {
		h = (h ^ uint32(b)) * 16777619
	}
	return h
}
