// Package vserve is the client-serving layer: it closes the loop from
// dissemination tree to end users by making every client of Section 1.2
// a *session* that subscribes to items at its own coherency tolerance and
// is served from the repository nearest to it. Updates fan out from
// repositories to sessions through per-client coherency filters — the
// same Eqs. 3 and 7 test the tree applies between repositories, applied
// once more at the leaves, where fan-out cost concentrates. (Eq. 3 alone
// would reintroduce the Section 5 missed-update problem at the client:
// its copy could silently drift by its own tolerance plus the
// repository's.)
//
// The fleet supplies, in simulation order:
//
//   - Load-aware placement: each session attaches to the nearest
//     repository (by physical-network delay from its home endpoint) under
//     the session cap; overflow redirects to the next candidate and is
//     counted.
//   - Churn and migration: sessions depart and re-arrive under a seeded
//     plan (the resilience fault-plan grammar over the session
//     population, see ParseSessionPlan) or a trace scenario, and migrate
//     — resynced to the new repository's current copy — when their
//     repository crashes.
//   - Client-observed fidelity: the paper's metric measured at the true
//     consumer, per session and as a population mean.
//   - Derived-data queries: a query session is an ordinary input session
//     plus incremental evaluators (see AttachQueries).
//
// A session is not an object but a handle — an index into per-shard
// struct-of-arrays state:
//
//	shard s (FNV-1a(name) % shards)
//	├── home[i], repo[i], seq[i], orphan flags    per-session scalars
//	├── wOff[i], wLen[i]                          watch-list extent
//	└── watch entries (flat, item-sorted per session)
//	    ├── wItem, wTol                           subscription
//	    ├── wHave, wSeeded                        session-edge filter state
//	    └── wInViol, wAttached, wLast, wSpan, wViol   fidelity meter
//
// The fidelity meter is a piecewise-constant integrator of
// |source − client copy| ≤ c over the session's attached lifetime; the
// source value of an item is global, so it lives once in src[item]
// instead of once per (session, item). That keeps a session at a few
// hundred bytes, so one process holds millions of them.
//
// Fan-out is driven by postings lists instead of maps-of-objects:
// byItem[item] lists every watch entry (source metering), and
// post[shard][repo][item] lists the watch entries of sessions currently
// attached to the repository (delivery). Attach/detach maintain the
// postings with swap-deletes through a per-watch position; the delivery
// hot path walks a slice, touches flat arrays, and allocates nothing
// (TestVirtualDeliverAllocFree). Query sessions live in one extra shard
// past the client shards, so only their deliveries pay for the evaluator
// hook.
//
// Placement rides the shared internal/place index: per-home candidate
// orders are computed once per home endpoint, not per session, and the
// optional consistent-hash overflow ring (Options.RingSlots) bounds the
// admission walk under cap pressure instead of degenerating to a linear
// scan. Scenario plans from internal/trace (flash crowds, diurnal waves)
// schedule churn; correlated regional failures arrive through the
// resilience runner's crash/rejoin observers exactly as single faults do.
//
// The fleet implements the run observers of the dissemination and
// resilience runners; the live and netio runtimes serve sessions over
// channels and TCP with the same admission/filter/migration policy.
package vserve

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"d3t/internal/coherency"
	"d3t/internal/netsim"
	"d3t/internal/obs"
	"d3t/internal/place"
	"d3t/internal/query"
	"d3t/internal/repository"
	"d3t/internal/resilience"
	"d3t/internal/sim"
	"d3t/internal/trace"
)

// Options parameterizes a fleet.
type Options struct {
	// Cap is the per-repository session cap (0 = unlimited). A session
	// whose nearest repository is full redirects to the next candidate.
	Cap int
	// Plan schedules session churn: a fault plan over the client
	// population (Fault.Node is a 1-based session index) where At is the
	// session's departure and RejoinAt its re-arrival. Nil means every
	// session stays for the whole run. See ParseSessionPlan.
	Plan *resilience.Plan
	// Scenario schedules scenario-driven churn (tick-indexed; converted
	// through Interval). Flash-crowd members are created detached and
	// watch the hot item; see Synthetic.
	Scenario *trace.ScenarioPlan
	// Interval is the trace tick length in sim time (defaults to 1): it
	// converts scenario ticks (At = tick * interval, as in
	// resilience.ParsePlan) and places windowed query aggregates into
	// their window slots.
	Interval sim.Time
	// Obs, when set, collects the serving layer's per-repository counters
	// (admits, redirects, migrations, resyncs, per-session deliver/filter
	// decisions, query evaluations) and the redirect-latency histogram.
	// Observation is passive.
	Obs *obs.Tree
	// Queries is the continuous derived-data query catalogue; each entry
	// becomes a query session attached by AttachQueries.
	Queries []query.Query
	// Shards is the session-state shard count. Sessions are sharded by
	// FNV-1a of their name, so Workers can deliver to disjoint shards in
	// parallel; results do not depend on it. Defaults to Workers (at
	// least 1): every shard costs a postings table per repository.
	Shards int
	// RingSlots/RingAfter enable the placement index's consistent-hash
	// overflow ring (see place.Options). Zero keeps strict nearest-first
	// overflow, the placement every concrete-client figure was rendered
	// with.
	RingSlots int
	RingAfter int
	// Workers > 1 fans deliveries out across shards in parallel. Shard
	// state is disjoint and per-shard tallies are merged in shard order,
	// so results are identical to the sequential path.
	Workers int
}

// Stats counts the serving layer's work and outcomes during one run.
// Query sessions are reported separately (QueryStats); every count here
// is over the client population.
type Stats struct {
	// Sessions is the client population size.
	Sessions int
	// Redirects counts admissions that landed on other than the nearest
	// repository because of the session cap.
	Redirects int
	// Migrations counts sessions moved to another repository after their
	// repository crashed (or re-homed when it rejoined); Resyncs counts
	// the catch-up values pushed to migrated or re-arriving sessions.
	Migrations int
	Resyncs    int
	// Orphaned counts sessions that found no live repository with
	// capacity at migration time (they retry when a repository rejoins).
	Orphaned int
	// Departures and Arrivals count executed session-churn events.
	Departures, Arrivals int
	// Delivered and Filtered count per-session update decisions: an
	// update a session's repository received is delivered when it exceeds
	// the client's own tolerance and filtered otherwise.
	Delivered, Filtered uint64
	// MeanFidelity is the mean client-observed fidelity over sessions;
	// LossPercent is 100*(1-MeanFidelity), matching the paper's y-axis.
	// WorstFidelity is the worst single session's fidelity.
	MeanFidelity  float64
	LossPercent   float64
	WorstFidelity float64
	// Shards is the shard count; BytesPerSession the measured resident
	// session-state footprint divided by the population.
	Shards          int
	BytesPerSession float64
}

// String renders the stats as a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("sessions=%d clientLoss=%.2f%% redirects=%d migrations=%d delivered=%d filtered=%d shards=%d bytes/session=%.0f",
		s.Sessions, s.LossPercent, s.Redirects, s.Migrations, s.Delivered, s.Filtered, s.Shards, s.BytesPerSession)
}

// ParseSessionPlan builds a session churn plan from a spec string, sized
// to a population of `sessions` clients over `ticks` trace ticks. It
// reuses the resilience fault-plan grammar with sessions standing in for
// repositories:
//
//	"" | "none"                no churn
//	crash:<i>@<tick>[+<down>]  session i departs at the tick (and
//	                           re-arrives <down> ticks later)
//	churn:<rate>[:<meandown>]  seeded Poisson churn: <rate> expected
//	                           departures per 100 ticks across the
//	                           population, each away for an exponential
//	                           time with mean <meandown> ticks
//
// The same spec, sizes and seed always yield the same plan.
func ParseSessionPlan(spec string, sessions, ticks int, interval sim.Time, seed int64) (*resilience.Plan, error) {
	return resilience.ParsePlan(spec, sessions, ticks, interval, seed)
}

// watchRef addresses one watch entry: shard index + index into the
// shard's flat watch arrays.
type watchRef struct {
	sh uint32
	wi uint32
}

// shard holds the struct-of-arrays session state of one shard. All
// per-watch arrays are parallel; a session's watches occupy
// [wOff[i], wOff[i]+wLen[i]) in item-sorted order.
type shard struct {
	// Per-session scalars.
	hash   []uint32 // FNV-1a of the session name (ring key)
	home   []int32
	repo   []int32  // current repository id, or -1 detached
	seq    []uint64 // attach sequence on the current repository
	orphan []bool
	wOff   []uint32
	wLen   []uint16
	names  []string // nil for synthetic populations

	// Per-watch subscription and filter state.
	wItem   []uint32
	wTol    []coherency.Requirement
	wHave   []float64
	wSeeded []bool

	// Per-watch fidelity meter (the source copy is global in Fleet.src).
	wInViol   []bool
	wAttached []bool
	wLast     []sim.Time
	wSpan     []sim.Time
	wViol     []sim.Time

	// wPos is the watch's position in its current delivery postings
	// slice (valid while attached), maintained for O(1) swap-delete.
	wPos []uint32
}

// rosterEntry records one admission on a repository, in attach order.
// The entry is stale (the session has since left) unless the session's
// current repo and seq still match.
type rosterEntry struct {
	h   uint64
	seq uint64
}

// event is one scheduled churn action (sim time).
type event struct {
	at     sim.Time
	idx    int
	depart bool
}

// Fleet is the population of sessions served by the repositories of one
// run. It implements the dissemination and resilience run observers:
// source ticks keep every session's reference signal current, repository
// deliveries fan out to that repository's sessions through the
// per-client filters, crashes migrate the dead repository's sessions, and
// the churn plan's departures and arrivals interleave with all of it in
// simulation order.
//
// A Fleet is single-threaded, like the simulation engine driving it
// (Workers only parallelizes internally): AttachAll or Populate the
// population, Seed the initial values once the overlay is built, run the
// simulation with the fleet as its observer, then Finalize.
type Fleet struct {
	net   *netsim.Network
	repos []*repository.Repository
	opts  Options
	ix    *place.Index

	itemID   map[string]uint32
	itemName []string
	src      []float64 // current source value per item

	// Per-repository serving state: current copies, liveness, load,
	// attach rosters, attach-sequence counters.
	values  [][]float64
	valSet  [][]bool
	alive   []bool
	sessCnt []int
	roster  [][]rosterEntry
	seqs    []uint64

	// byItem[item] is the static all-watchers postings list (source
	// metering); post[shard][repo-1][item] the attached-watchers list
	// (delivery fan-out).
	byItem [][]watchRef
	post   [][][][]watchRef

	// shards holds Options.Shards client shards plus, last, the query
	// shard: query session i is session i of that shard.
	shards []shard
	// order is every created client session in population order (the
	// churn plan's index space and the fidelity aggregation order).
	order  []uint64
	byName map[string]uint64

	// Query sessions (see queries.go): qOwner maps a query-shard watch to
	// its query, qByItem an item to the queries watching it.
	queries []*QuerySession
	qOwner  []uint32
	qByItem [][]*QuerySession

	events []event
	next   int

	stats Stats
	par   *parallel
}

// NewFleet builds an empty fleet over the repository population (ids
// 1..n matching the network's endpoints). The fleet keeps the pointers,
// so serving sets derived and augmented later are visible to admission
// and migration. Item catalogue and sessions are added by AttachAll,
// Populate and AttachQueries.
func NewFleet(net *netsim.Network, repos []*repository.Repository, opts Options) (*Fleet, error) {
	if opts.Shards <= 0 {
		opts.Shards = max(opts.Workers, 1)
	}
	if opts.Interval <= 0 {
		opts.Interval = 1
	}
	f := &Fleet{
		net:     net,
		repos:   repos,
		opts:    opts,
		itemID:  make(map[string]uint32),
		values:  make([][]float64, len(repos)),
		valSet:  make([][]bool, len(repos)),
		alive:   make([]bool, len(repos)),
		sessCnt: make([]int, len(repos)),
		roster:  make([][]rosterEntry, len(repos)),
		seqs:    make([]uint64, len(repos)),
		shards:  make([]shard, opts.Shards+1),
		byName:  make(map[string]uint64),
	}
	for i, r := range repos {
		if r.ID != repository.ID(i+1) {
			return nil, fmt.Errorf("vserve: repository %d at index %d (want contiguous ids from 1)", r.ID, i)
		}
		f.alive[i] = true
	}
	f.ix = place.New(net, len(repos), place.Options{RingSlots: opts.RingSlots, RingAfter: opts.RingAfter})
	f.post = make([][][][]watchRef, len(f.shards))
	for s := range f.post {
		f.post[s] = make([][][]watchRef, len(repos))
	}
	if opts.Plan != nil {
		for _, ft := range opts.Plan.Faults {
			idx := int(ft.Node) - 1
			f.events = append(f.events, event{at: ft.At, idx: idx, depart: true})
			if ft.RejoinAt > 0 {
				f.events = append(f.events, event{at: ft.RejoinAt, idx: idx})
			}
		}
	}
	if opts.Scenario != nil {
		for _, e := range opts.Scenario.Events {
			f.events = append(f.events, event{at: sim.Time(e.Tick) * opts.Interval, idx: e.Session, depart: e.Depart})
		}
	}
	sort.SliceStable(f.events, func(i, j int) bool { return f.events[i].at < f.events[j].at })
	if opts.Workers > 1 {
		f.par = newParallel(opts.Workers)
	}
	f.stats.Shards = opts.Shards
	return f, nil
}

// Index exposes the placement index (test instrumentation).
func (f *Fleet) Index() *place.Index { return f.ix }

// queryShard is the index of the shard holding the query sessions.
func (f *Fleet) queryShard() uint32 { return uint32(f.opts.Shards) }

// item interns an item name.
func (f *Fleet) item(name string) uint32 {
	id, ok := f.itemID[name]
	if !ok {
		id = uint32(len(f.itemName))
		f.itemID[name] = id
		f.itemName = append(f.itemName, name)
		f.src = append(f.src, 0)
		f.byItem = append(f.byItem, nil)
		f.qByItem = append(f.qByItem, nil)
		for r := range f.values {
			f.values[r] = append(f.values[r], 0)
			f.valSet[r] = append(f.valSet[r], false)
		}
	}
	return id
}

// handle packs (shard, index); split unpacks it.
func handle(sh, idx uint32) uint64 { return uint64(sh)<<32 | uint64(idx) }

func split(h uint64) (sh, idx uint32) { return uint32(h >> 32), uint32(h) }

// create appends one detached session to shard shi and returns the
// handle. items must be sorted by name; tols parallel.
func (f *Fleet) create(shi uint32, name string, hash uint32, home repository.ID, items []uint32, tols []coherency.Requirement) uint64 {
	sh := &f.shards[shi]
	idx := uint32(len(sh.hash))
	h := handle(shi, idx)
	sh.hash = append(sh.hash, hash)
	sh.home = append(sh.home, int32(home))
	sh.repo = append(sh.repo, -1)
	sh.seq = append(sh.seq, 0)
	sh.orphan = append(sh.orphan, false)
	sh.wOff = append(sh.wOff, uint32(len(sh.wItem)))
	sh.wLen = append(sh.wLen, uint16(len(items)))
	if name != "" {
		for len(sh.names) < int(idx) {
			sh.names = append(sh.names, "")
		}
		sh.names = append(sh.names, name)
	}
	for k, it := range items {
		wi := uint32(len(sh.wItem))
		sh.wItem = append(sh.wItem, it)
		sh.wTol = append(sh.wTol, tols[k])
		sh.wHave = append(sh.wHave, 0)
		sh.wSeeded = append(sh.wSeeded, false)
		sh.wInViol = append(sh.wInViol, false)
		sh.wAttached = append(sh.wAttached, false)
		sh.wLast = append(sh.wLast, 0)
		sh.wSpan = append(sh.wSpan, 0)
		sh.wViol = append(sh.wViol, 0)
		sh.wPos = append(sh.wPos, 0)
		f.byItem[it] = append(f.byItem[it], watchRef{sh: shi, wi: wi})
	}
	return h
}

// advance accounts [wLast, now) against the watch's current meter state.
func (sh *shard) advance(wi uint32, now sim.Time) {
	if sh.wAttached[wi] {
		d := now - sh.wLast[wi]
		sh.wSpan[wi] += d
		if sh.wInViol[wi] {
			sh.wViol[wi] += d
		}
	}
	sh.wLast[wi] = now
}

// deliverWatch records a value delivered to the client: advance the
// meter, move the client copy, refresh the violation flag against the
// global source value.
func (f *Fleet) deliverWatch(sh *shard, wi uint32, now sim.Time, v float64) {
	sh.advance(wi, now)
	sh.wHave[wi] = v
	sh.wSeeded[wi] = true
	sh.wInViol[wi] = sh.wTol[wi].Violated(f.src[sh.wItem[wi]], v)
}

// canServe reports whether the repository serves every watched item of
// the session at least as stringently as demanded — node.Core's
// CanServeSession over flat state.
func (f *Fleet) canServe(id repository.ID, sh *shard, i uint32) bool {
	r := f.repos[id-1]
	if r.IsSource() {
		return true
	}
	off, n := sh.wOff[i], uint32(sh.wLen[i])
	for wi := off; wi < off+n; wi++ {
		own, ok := r.Serving[f.itemName[sh.wItem[wi]]]
		if !ok || !own.AtLeastAsStringentAs(sh.wTol[wi]) {
			return false
		}
	}
	return true
}

// Alive, HasRoom and Load implement place.State.
func (f *Fleet) Alive(id repository.ID) bool { return f.alive[id-1] }
func (f *Fleet) HasRoom(id repository.ID) bool {
	return f.opts.Cap <= 0 || f.sessCnt[id-1] < f.opts.Cap
}
func (f *Fleet) Load(id repository.ID) int { return f.sessCnt[id-1] }

// place asks the shared placement index for the repository to serve the
// session, or NoID when none qualifies. Initial placement (before
// repository needs exist) requires only liveness and cap room, falling
// back to the least-loaded live repository when every one is full; later
// placements (migration, re-arrival) first require the candidate to
// serve every watched item at the client's tolerance, then drop that
// requirement rather than strand the session.
func (f *Fleet) place(sh *shard, shi, i uint32, initial bool) repository.ID {
	var serves func(repository.ID) bool
	if !initial {
		serves = func(id repository.ID) bool { return f.canServe(id, sh, i) }
	}
	exclude := repository.NoID
	if sh.repo[i] >= 0 {
		exclude = repository.ID(sh.repo[i])
	}
	id, _ := f.ix.Place(f, repository.ID(sh.home[i]), exclude, sh.hash[i], serves, initial)
	return id
}

// attach wires the session onto the repository: meters resume, postings
// gain its watches, and the repository resyncs it to its current copies
// (skipping values the session provably already holds) — the same
// admission resync as node.Core.ForceAdmit, in one pass.
func (f *Fleet) attach(h uint64, id repository.ID, now sim.Time) {
	shi, i := split(h)
	sh := &f.shards[shi]
	var qs *QuerySession
	if shi == f.queryShard() {
		qs = f.queries[i]
		qs.attached = true
		qs.gate(now)
	}
	sh.repo[i] = int32(id)
	sh.orphan[i] = false
	sh.seq[i] = f.seqs[id-1]
	f.seqs[id-1]++
	f.sessCnt[id-1]++
	f.roster[id-1] = append(f.roster[id-1], rosterEntry{h: h, seq: sh.seq[i]})
	o := f.opts.Obs.Node(id)
	o.Admit1()
	resyncs := 0
	off, n := sh.wOff[i], uint32(sh.wLen[i])
	posts := f.post[shi][id-1]
	if items := len(f.itemName); len(posts) < items {
		// Postings are sized to the item catalogue on first use, so
		// (shard, repository) pairs no session attaches to cost nothing.
		grown := make([][]watchRef, items)
		copy(grown, posts)
		posts = grown
		f.post[shi][id-1] = posts
	}
	vals, set := f.values[id-1], f.valSet[id-1]
	for wi := off; wi < off+n; wi++ {
		sh.advance(wi, now)
		sh.wAttached[wi] = true
		it := sh.wItem[wi]
		sh.wPos[wi] = uint32(len(posts[it]))
		posts[it] = append(posts[it], watchRef{sh: shi, wi: wi})
		// Resync (item-sorted order, the watch layout's order): skip
		// items the repository does not hold and values the session
		// already has.
		if !set[it] {
			continue
		}
		v := vals[it]
		if sh.wSeeded[wi] && sh.wHave[wi] == v {
			continue
		}
		f.deliverWatch(sh, wi, now, v)
		resyncs++
		if qs != nil {
			f.queryDeliver(qs, now, f.itemName[it], v, true)
		}
	}
	if qs == nil {
		f.stats.Resyncs += resyncs
	}
	o.Resync(resyncs)
}

// detach unwires the session from its repository: postings lose its
// watches (swap-delete via the tracked positions), meters pause. With
// dead true the repository's postings are about to be cleared wholesale
// (crash migration), so individual removal is skipped.
func (f *Fleet) detach(h uint64, now sim.Time, dead bool) {
	shi, i := split(h)
	sh := &f.shards[shi]
	id := repository.ID(sh.repo[i])
	if id <= 0 {
		return
	}
	sh.repo[i] = -1
	f.sessCnt[id-1]--
	posts := f.post[shi][id-1]
	off, n := sh.wOff[i], uint32(sh.wLen[i])
	for wi := off; wi < off+n; wi++ {
		sh.advance(wi, now)
		sh.wAttached[wi] = false
		if dead {
			continue
		}
		it := sh.wItem[wi]
		lst := posts[it]
		pos := sh.wPos[wi]
		last := lst[len(lst)-1]
		lst[pos] = last
		f.shards[last.sh].wPos[last.wi] = pos
		posts[it] = lst[:len(lst)-1]
	}
	if shi == f.queryShard() {
		qs := f.queries[i]
		qs.attached = false
		qs.gate(now)
	}
}

// admit creates one client session and initially places it, charging a
// redirect when it lands on other than its nearest repository. detached
// creates the session outside the system (a flash-crowd member awaiting
// its arrival event).
func (f *Fleet) admit(name string, hash uint32, home repository.ID, items []uint32, tols []coherency.Requirement, detached bool) (uint64, error) {
	h := f.create(hash%uint32(f.opts.Shards), name, hash, home, items, tols)
	f.order = append(f.order, h)
	f.stats.Sessions++
	if detached {
		return h, nil
	}
	target, err := f.placeNew(h, name)
	if err != nil {
		return h, err
	}
	order := f.ix.Order(home)
	if target != order[0] {
		f.stats.Redirects++
		// The redirect is charged to the nearest repository (the one that
		// turned the client away); its latency is the admission walk's
		// cost — a round trip to every candidate tried, the target
		// included.
		if on := f.opts.Obs.Node(order[0]); on != nil {
			var lat sim.Time
			for _, cand := range order {
				lat += 2 * f.net.Delay[home][cand]
				if cand == target {
					break
				}
			}
			on.Redirect1()
			on.ObserveRedirectLatency(int64(lat))
		}
	}
	return h, nil
}

// placeNew places a freshly created session and attaches it at time 0.
func (f *Fleet) placeNew(h uint64, name string) (repository.ID, error) {
	shi, i := split(h)
	target := f.place(&f.shards[shi], shi, i, true)
	if target == repository.NoID {
		return target, fmt.Errorf("vserve: no repository to place session %q on", name)
	}
	f.attach(h, target, 0)
	return target, nil
}

// watchList interns a watch list's items in name order, with the
// tolerances parallel — the item-sorted layout create expects.
func (f *Fleet) watchList(wants map[string]coherency.Requirement) ([]uint32, []coherency.Requirement) {
	names := make([]string, 0, len(wants))
	for x := range wants {
		names = append(names, x)
	}
	sort.Strings(names)
	items := make([]uint32, len(names))
	tols := make([]coherency.Requirement, len(names))
	for k, x := range names {
		items[k] = f.item(x)
		tols[k] = wants[x]
	}
	return items, tols
}

// AttachAll admits a concrete client population in order: each client
// is placed on the nearest repository (by delay from its home endpoint,
// Client.Repo as generated) under the session cap, redirecting to the
// next candidate when full. The client's Repo is rewritten to the
// placement, so repository.DeriveNeeds over the population afterwards
// sees where each client actually landed.
func (f *Fleet) AttachAll(clients []*repository.Client) error {
	for _, c := range clients {
		if err := c.Validate(); err != nil {
			return err
		}
		if int(c.Repo) > len(f.repos) {
			return fmt.Errorf("vserve: client %q homed at unknown repository %d", c.Name, c.Repo)
		}
		if _, dup := f.byName[c.Name]; dup {
			return fmt.Errorf("vserve: duplicate session %q", c.Name)
		}
		items, tols := f.watchList(c.Wants)
		h, err := f.admit(c.Name, place.Key(c.Name), c.Repo, items, tols, false)
		if err != nil {
			return err
		}
		f.byName[c.Name] = h
		shi, i := split(h)
		c.Repo = repository.ID(f.shards[shi].repo[i])
	}
	return nil
}

// DeriveNeeds computes every repository's data and coherency needs from
// the registered client population — repository.DeriveNeeds without
// materializing a client slice. Attached sessions count against their
// serving repository; detached scenario sessions (the flash crowd)
// against their home endpoint, so the overlay is provisioned for demand
// that has registered but not yet arrived.
func (f *Fleet) DeriveNeeds() {
	for _, r := range f.repos {
		r.Needs = make(map[string]coherency.Requirement)
		r.Serving = make(map[string]coherency.Requirement)
	}
	for _, h := range f.order {
		shi, i := split(h)
		sh := &f.shards[shi]
		// Detached sessions (scenario crowds created outside the system,
		// orphans) count against their home endpoint: the overlay is
		// provisioned for the registered demand, so a flash crowd's hot
		// item is being disseminated before the burst arrives.
		at := sh.repo[i]
		if at < 0 {
			at = sh.home[i]
		}
		r := f.repos[at-1]
		off, n := sh.wOff[i], uint32(sh.wLen[i])
		for wi := off; wi < off+n; wi++ {
			item := f.itemName[sh.wItem[wi]]
			tol := sh.wTol[wi]
			cur, exists := r.Needs[item]
			if !exists || tol.AtLeastAsStringentAs(cur) {
				r.Needs[item] = tol
				r.Serving[item] = tol
			}
		}
	}
}

// Seed initializes the source signal, every repository's copy of the
// items it holds, and every session's copy, as if all clients joined
// fully synchronized. Call it after the overlay is built (serving sets
// are final) and before the run. Sessions attached after Seed are
// resynced to the repositories' seeded copies on admission.
func (f *Fleet) Seed(initial map[string]float64) {
	for x, v := range initial {
		id := f.item(x)
		f.src[id] = v
		for r, repo := range f.repos {
			if _, held := repo.Serving[x]; held || repo.IsSource() {
				f.values[r][id] = v
				f.valSet[r][id] = true
			}
		}
	}
	for s := range f.shards {
		sh := &f.shards[s]
		for wi := range sh.wItem {
			if v, ok := initial[f.itemName[sh.wItem[wi]]]; ok {
				sh.wHave[wi] = v
				sh.wSeeded[wi] = true
				sh.wInViol[wi] = sh.wTol[wi].Violated(v, v)
			}
		}
	}
	f.seedQueries(initial)
}

// catchUp executes every scheduled churn event due at or before now.
func (f *Fleet) catchUp(now sim.Time) {
	for f.next < len(f.events) && f.events[f.next].at <= now {
		e := f.events[f.next]
		f.next++
		if e.idx < 0 || e.idx >= len(f.order) {
			continue // plan sized for a larger population
		}
		h := f.order[e.idx]
		shi, i := split(h)
		sh := &f.shards[shi]
		if e.depart {
			if sh.repo[i] < 0 && !sh.orphan[i] {
				continue // already gone
			}
			f.detach(h, e.at, false)
			sh.orphan[i] = false
			f.stats.Departures++
			continue
		}
		if sh.repo[i] >= 0 || sh.orphan[i] {
			continue // already back (or waiting to be)
		}
		f.stats.Arrivals++
		if target := f.place(sh, shi, i, false); target != repository.NoID {
			f.attach(h, target, e.at)
		} else {
			sh.orphan[i] = true
			f.stats.Orphaned++
		}
	}
}

// ObserveSource keeps every watching session's reference signal current:
// the global source copy moves once, and each watcher's meter advances
// and refreshes its violation flag, attached or not.
func (f *Fleet) ObserveSource(now sim.Time, item string, v float64) {
	f.catchUp(now)
	id, ok := f.itemID[item]
	if !ok {
		return
	}
	f.src[id] = v
	for _, ref := range f.byItem[id] {
		sh := &f.shards[ref.sh]
		sh.advance(ref.wi, now)
		sh.wInViol[ref.wi] = sh.wTol[ref.wi].Violated(v, sh.wHave[ref.wi])
	}
	f.observeQuerySource(now, id, v)
}

// ObserveDeliver fans a repository's delivery out to its attached
// watchers through the per-client filter: Eqs. 3+7 with the repository's
// own serving tolerance as cSelf, and the first-push rule for unseeded
// edges — node.Core.Apply's session fan-out over postings. Eq. 3 alone
// would let a client silently drift by up to its tolerance plus the
// repository's; Eq. 7 forwards the risky updates too, so a coherent
// repository implies coherent clients. Filtered decisions are the fan-out
// work the serving layer saves. The steady-state path allocates nothing.
func (f *Fleet) ObserveDeliver(now sim.Time, repo repository.ID, item string, v float64) {
	f.catchUp(now)
	id, ok := f.itemID[item]
	if !ok {
		return
	}
	o := f.opts.Obs.Node(repo)
	o.Apply1()
	f.values[repo-1][id] = v
	f.valSet[repo-1][id] = true
	r := f.repos[repo-1]
	var cSelf coherency.Requirement
	if !r.IsSource() {
		cSelf, _ = r.ServingTolerance(item)
	}
	var delivered, filtered int
	if f.par != nil {
		delivered, filtered = f.par.deliver(f, repo, id, now, v, cSelf)
	} else {
		for s := 0; s < f.opts.Shards; s++ {
			d, fl := f.deliverShard(uint32(s), repo, id, now, v, cSelf)
			delivered += d
			filtered += fl
		}
	}
	f.stats.Delivered += uint64(delivered)
	f.stats.Filtered += uint64(filtered)
	if len(f.queries) > 0 {
		d, fl := f.deliverShard(f.queryShard(), repo, id, now, v, cSelf)
		delivered += d
		filtered += fl
	}
	o.SessPass(delivered, filtered)
}

// deliverShard filters one shard's postings for (repo, item); deliveries
// to the query shard also run the owning query's evaluator.
func (f *Fleet) deliverShard(shi uint32, repo repository.ID, id uint32, now sim.Time, v float64, cSelf coherency.Requirement) (delivered, filtered int) {
	sh := &f.shards[shi]
	src := f.src[id]
	queries := shi == f.queryShard()
	posts := f.post[shi][repo-1]
	if int(id) >= len(posts) {
		return 0, 0
	}
	for _, ref := range posts[id] {
		wi := ref.wi
		if sh.wSeeded[wi] && !coherency.ShouldForward(v, sh.wHave[wi], sh.wTol[wi], cSelf) {
			filtered++
			continue
		}
		sh.advance(wi, now)
		sh.wHave[wi] = v
		sh.wSeeded[wi] = true
		sh.wInViol[wi] = sh.wTol[wi].Violated(src, v)
		delivered++
		if queries {
			f.queryDeliver(f.queries[f.qOwner[wi]], now, f.itemName[id], v, false)
		}
	}
	return delivered, filtered
}

// ObserveCrash migrates the dead repository's sessions in attach order
// (so capacity contention resolves exactly as it arrived) onto the
// nearest live alternative, preferring ones already serving their items
// and resyncing each to its new repository's current copy. Sessions that
// find no room are orphaned and retry when a repository rejoins.
func (f *Fleet) ObserveCrash(now sim.Time, id repository.ID) {
	f.catchUp(now)
	f.alive[id-1] = false
	for _, e := range f.roster[id-1] {
		shi, i := split(e.h)
		sh := &f.shards[shi]
		if repository.ID(sh.repo[i]) != id || sh.seq[i] != e.seq {
			continue // stale roster entry: the session has since left
		}
		f.detach(e.h, now, true)
		if target := f.place(sh, shi, i, false); target != repository.NoID {
			f.attach(e.h, target, now)
			f.stats.Migrations++
			f.opts.Obs.Node(target).Migrate1()
		} else {
			sh.orphan[i] = true
			f.stats.Orphaned++
		}
	}
	f.roster[id-1] = f.roster[id-1][:0]
	// The dead repository's delivery postings are cleared wholesale.
	for s := range f.post {
		posts := f.post[s][id-1]
		for it := range posts {
			posts[it] = posts[it][:0]
		}
	}
}

// ObserveRejoin marks the repository live again and retries orphaned
// sessions — clients in population order, then queries — against the
// enlarged candidate set.
func (f *Fleet) ObserveRejoin(now sim.Time, id repository.ID) {
	f.catchUp(now)
	f.alive[id-1] = true
	for _, h := range f.order {
		f.rehome(h, now)
	}
	for _, qs := range f.queries {
		f.rehome(qs.h, now)
	}
}

// rehome retries one orphaned session's placement.
func (f *Fleet) rehome(h uint64, now sim.Time) {
	shi, i := split(h)
	sh := &f.shards[shi]
	if !sh.orphan[i] {
		return
	}
	if target := f.place(sh, shi, i, false); target != repository.NoID {
		f.attach(h, target, now)
		f.stats.Migrations++
		f.opts.Obs.Node(target).Migrate1()
	}
}

// SessionCount returns the created client population size.
func (f *Fleet) SessionCount() int { return len(f.order) }

// SessionRepo returns the repository serving client session idx
// (population order), or NoID while it is detached.
func (f *Fleet) SessionRepo(idx int) repository.ID { return f.repoOf(f.order[idx]) }

// repoOf returns the repository serving session h, or NoID.
func (f *Fleet) repoOf(h uint64) repository.ID {
	shi, i := split(h)
	if r := f.shards[shi].repo[i]; r > 0 {
		return repository.ID(r)
	}
	return repository.NoID
}

// SessionValue returns client session idx's current copy of item, and
// false when the session does not watch the item.
func (f *Fleet) SessionValue(idx int, item string) (float64, bool) {
	shi, i := split(f.order[idx])
	sh := &f.shards[shi]
	off, n := sh.wOff[i], uint32(sh.wLen[i])
	for wi := off; wi < off+n; wi++ {
		if f.itemName[sh.wItem[wi]] == item {
			return sh.wHave[wi], true
		}
	}
	return 0, false
}

// Attached returns how many sessions (queries included) are currently
// attached.
func (f *Fleet) Attached() int {
	n := 0
	for _, c := range f.sessCnt {
		n += c
	}
	return n
}

// SessionFidelity returns one client session's observed fidelity at now
// (population index order): the mean over watched items of the fraction
// of attached time the client's copy was within its own tolerance of the
// source. A session that was never attached observed nothing and reports
// 1 (vacuous).
func (f *Fleet) SessionFidelity(idx int, now sim.Time) float64 {
	shi, i := split(f.order[idx])
	sh := &f.shards[shi]
	var sum float64
	var n int
	off, cnt := sh.wOff[i], uint32(sh.wLen[i])
	for wi := off; wi < off+cnt; wi++ {
		if fid, ok := sh.fidelity(wi, now); ok {
			sum += fid
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// fidelity returns one watch's attached-time fidelity up to now, and
// false when it never observed any attached time.
func (sh *shard) fidelity(wi uint32, now sim.Time) (float64, bool) {
	span, viol := sh.wSpan[wi], sh.wViol[wi]
	if sh.wAttached[wi] && now > sh.wLast[wi] {
		d := now - sh.wLast[wi]
		span += d
		if sh.wInViol[wi] {
			viol += d
		}
	}
	if span <= 0 {
		return 1, false
	}
	return 1 - float64(viol)/float64(span), true
}

// PerSessionFidelity returns every client session's fidelity at the
// horizon, in population order.
func (f *Fleet) PerSessionFidelity(horizon sim.Time) []float64 {
	out := make([]float64, len(f.order))
	for i := range out {
		out[i] = f.SessionFidelity(i, horizon)
	}
	return out
}

// Finalize flushes churn through the horizon and returns the run's
// statistics, including the measured bytes/session footprint.
func (f *Fleet) Finalize(horizon sim.Time) Stats {
	f.catchUp(horizon)
	st := f.stats
	st.MeanFidelity, st.WorstFidelity = 1, 1
	if len(f.order) > 0 {
		var sum float64
		worst := 1.0
		for i := range f.order {
			fid := f.SessionFidelity(i, horizon)
			sum += fid
			if fid < worst {
				worst = fid
			}
		}
		st.MeanFidelity = sum / float64(len(f.order))
		st.WorstFidelity = worst
	}
	st.LossPercent = 100 * (1 - st.MeanFidelity)
	if n := len(f.order); n > 0 {
		st.BytesPerSession = float64(f.Footprint()) / float64(n)
	}
	return st
}

// Footprint returns the resident session-state bytes: every per-session
// and per-watch array plus postings and rosters, by capacity. Fixed
// per-run state (item tables, repository value copies) is excluded — it
// does not grow with the population.
func (f *Fleet) Footprint() int64 {
	var b int64
	for s := range f.shards {
		sh := &f.shards[s]
		b += int64(cap(sh.hash))*4 + int64(cap(sh.home))*4 + int64(cap(sh.repo))*4 +
			int64(cap(sh.seq))*8 + int64(cap(sh.orphan)) + int64(cap(sh.wOff))*4 + int64(cap(sh.wLen))*2
		b += int64(cap(sh.wItem))*4 + int64(cap(sh.wTol))*8 + int64(cap(sh.wHave))*8 +
			int64(cap(sh.wSeeded)) + int64(cap(sh.wInViol)) + int64(cap(sh.wAttached)) +
			int64(cap(sh.wLast))*8 + int64(cap(sh.wSpan))*8 + int64(cap(sh.wViol))*8 + int64(cap(sh.wPos))*4
		for _, name := range sh.names {
			b += int64(len(name)) + 16
		}
		for r := range f.post[s] {
			for it := range f.post[s][r] {
				b += int64(cap(f.post[s][r][it])) * 8
			}
		}
	}
	for it := range f.byItem {
		b += int64(cap(f.byItem[it])) * 8
	}
	for r := range f.roster {
		b += int64(cap(f.roster[r])) * 16
	}
	b += int64(cap(f.order)) * 8
	return b
}

// Synthetic parameterizes a compact synthetic population — the same
// distribution as repository.GenerateClients (home chosen uniformly,
// 1..2·ItemsPerClient−1 items from a partial shuffle, the paper's
// stringent/loose tolerance mix) without materializing a Client object
// per session.
type Synthetic struct {
	// Sessions is the population size.
	Sessions int
	// Items is the item catalogue.
	Items []string
	// ItemsPerClient is the mean watch-list size (default 3).
	ItemsPerClient int
	// StringentFrac is the probability a tolerance is stringent
	// ([0.01, 0.099] vs [0.1, 0.999]).
	StringentFrac float64
	// Seed makes generation deterministic.
	Seed int64
	// HotItem is the flash-crowd item (default Items[0]); only used when
	// the fleet has a scenario with hot sessions.
	HotItem string
}

// Populate generates and admits a synthetic population. Sessions marked
// hot by the fleet's scenario watch only the hot item; sessions marked
// start-detached are created outside the system and arrive with their
// scenario event. Names are not retained (the hash is computed from the
// generated name and discarded), keeping the per-session footprint flat.
func (f *Fleet) Populate(cfg Synthetic) error {
	if cfg.Sessions <= 0 || len(cfg.Items) == 0 {
		return fmt.Errorf("vserve: synthetic population needs sessions and items")
	}
	if cfg.ItemsPerClient <= 0 {
		cfg.ItemsPerClient = 3
	}
	hot := cfg.HotItem
	if hot == "" {
		hot = cfg.Items[0]
	}
	hotID := f.item(hot)
	ids := make([]uint32, len(cfg.Items))
	for k, x := range cfg.Items {
		ids[k] = f.item(x)
	}
	sc := f.opts.Scenario
	r := rand.New(rand.NewSource(cfg.Seed))
	// Scratch state reused across sessions: a partial Fisher-Yates over
	// item positions, swapped back after each draw.
	pick := make([]int, len(cfg.Items))
	for k := range pick {
		pick[k] = k
	}
	items := make([]uint32, 0, 2*cfg.ItemsPerClient)
	tols := make([]coherency.Requirement, 0, 2*cfg.ItemsPerClient)
	name := make([]byte, 0, 24)
	drawTol := func() coherency.Requirement {
		if r.Float64() < cfg.StringentFrac {
			return coherency.Requirement(0.01 + r.Float64()*(0.099-0.01))
		}
		return coherency.Requirement(0.1 + r.Float64()*(0.999-0.1))
	}
	for i := 0; i < cfg.Sessions; i++ {
		home := repository.ID(1 + r.Intn(len(f.repos)))
		items = items[:0]
		tols = tols[:0]
		isHot := sc != nil && i < len(sc.Hot) && sc.Hot[i]
		if isHot {
			items = append(items, hotID)
			tols = append(tols, drawTol())
		} else {
			n := 1 + r.Intn(2*cfg.ItemsPerClient-1)
			if n > len(pick) {
				n = len(pick)
			}
			for j := 0; j < n; j++ {
				k := j + r.Intn(len(pick)-j)
				pick[j], pick[k] = pick[k], pick[j]
			}
			// Keep the watch layout item-sorted: positions sort ascending
			// and the catalogue is registered in order, so sorting
			// positions sorts item ids consistently with name order only
			// when the catalogue itself is name-sorted — which trace item
			// sets are. Sort by name to be exact regardless.
			sel := pick[:n]
			sort.Ints(sel)
			for _, p := range sel {
				items = append(items, ids[p])
				tols = append(tols, drawTol())
			}
			// Restore the scratch permutation (order within the prefix is
			// enough; contents are intact by construction).
		}
		name = strconv.AppendInt(append(name[:0], "vclient"...), int64(i), 10)
		hash := fnv1a(name)
		detached := sc != nil && i < len(sc.StartDetached) && sc.StartDetached[i]
		if _, err := f.admit("", hash, home, items, tols, detached); err != nil {
			return err
		}
	}
	return nil
}

// fnv1a is place.Key over bytes.
func fnv1a(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	return h
}

// Interface conformance: the fleet observes both the plain and the
// resilient runners.
var _ resilience.Observer = (*Fleet)(nil)
