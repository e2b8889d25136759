package resilience

import (
	"fmt"
	"path/filepath"
	"sort"

	"d3t/internal/coherency"
	"d3t/internal/dissemination"
	"d3t/internal/node"
	"d3t/internal/obs"
	"d3t/internal/repository"
	"d3t/internal/sim"
	"d3t/internal/trace"
	"d3t/internal/tree"
	"d3t/internal/wal"
)

// Config parameterizes the resilient simulation runner.
type Config struct {
	// Push is the delay model of the underlying push dissemination.
	Push dissemination.Config
	// Heartbeat is the keep-alive interval between overlay neighbors.
	// Default 2 s.
	Heartbeat sim.Time
	// DetectK is the silence window in heartbeat intervals: a neighbor
	// silent (no push, no heartbeat) for DetectK*Heartbeat is declared
	// dead. Default 3.
	DetectK int
	// BackupK is the precomputed backup-parent list length. Default 5.
	BackupK int
	// Observer, when set, watches the run's events — source ticks and
	// deliveries like dissemination.Observer, plus crashes and rejoins so
	// the client-serving layer can migrate sessions off dead repositories.
	// Nil leaves the run byte-identical to one without the field.
	Observer Observer
	// Durability, when set, gives every repository a write-ahead log
	// under Durability.Dir (one subdirectory per repository): each
	// delivered update is appended and group-committed, a kill: fault
	// closes the log with the process, and the rejoin recovers from disk
	// instead of coming back cold. Nil leaves the run byte-identical to
	// one without the field.
	Durability *wal.Options
	// ReplayPerRecord and SnapshotLoad model the recovery cost in
	// simulated time: a disk rejoin completes SnapshotLoad +
	// ReplayPerRecord per replayed record after the rejoin event.
	// Defaults 50 µs and 5 ms — deterministic, never wall-clock.
	ReplayPerRecord sim.Time
	SnapshotLoad    sim.Time
}

// Observer extends the dissemination observer with fault events.
type Observer interface {
	dissemination.Observer
	// ObserveCrash fires when a repository goes down.
	ObserveCrash(now sim.Time, id repository.ID)
	// ObserveRejoin fires when a crashed repository comes back.
	ObserveRejoin(now sim.Time, id repository.ID)
}

// WithDefaults resolves the zero values to the runner's defaults,
// including the push delay conventions (dissemination.Config). Exported
// so figures and tests can report the effective detection window.
func (c Config) WithDefaults() Config {
	if c.Heartbeat == 0 {
		c.Heartbeat = 2 * sim.Second
	}
	if c.DetectK <= 0 {
		c.DetectK = 3
	}
	if c.BackupK <= 0 {
		c.BackupK = 5
	}
	if c.ReplayPerRecord == 0 {
		c.ReplayPerRecord = 50 * sim.Microsecond
	}
	if c.SnapshotLoad == 0 {
		c.SnapshotLoad = 5 * sim.Millisecond
	}
	c.Push = c.Push.WithDefaults()
	return c
}

// Window returns the detection silence window.
func (c Config) Window() sim.Time { return sim.Time(c.DetectK) * c.Heartbeat }

// Stats counts the resilience machinery's work during one run.
type Stats struct {
	// Crashes and Rejoins count executed fault-plan events.
	Crashes, Rejoins int
	// Detections counts parent-death declarations by dependents.
	Detections int
	// ChildDrops counts dead-child edge removals by parents.
	ChildDrops int
	// Rehomed counts re-established (dependent, item) feeds; Orphaned
	// counts feeds that found no live parent with capacity (retried on
	// later watchdog passes until one succeeds).
	Rehomed, Orphaned int
	// Heartbeats counts keep-alive messages sent (kept out of
	// Stats.Messages so data-path message counts stay comparable across
	// fault-free and faulty runs).
	Heartbeats uint64
	// DroppedDeliveries counts update copies that arrived at a dead node.
	DroppedDeliveries uint64
	// RecoverySamples, MeanRecovery and MaxRecovery summarize the time
	// from a crash to a dependent's re-homing onto a live parent.
	RecoverySamples int
	MeanRecovery    sim.Time
	MaxRecovery     sim.Time
	// Kills counts executed kill: faults (process deaths losing all
	// in-memory state, unlike the network-outage crashes above).
	Kills int
	// DiskRecoveries counts rejoins that restored state from the
	// write-ahead log; ReplayedRecords the log records they (and the
	// run's start, see RestoredAtStart) replayed.
	DiskRecoveries  int
	ReplayedRecords int
	// RestoredAtStart counts repositories that recovered state from disk
	// when the run began — a full-cluster restart resuming where the
	// previous run's logs left off.
	RestoredAtStart int
	// ReplayTime and MeanReplay total and average the modeled
	// disk-recovery delay (snapshot load + per-record replay).
	ReplayTime sim.Time
	MeanReplay sim.Time
}

// Result extends the dissemination result with resilience statistics.
type Result struct {
	*dissemination.Result
	// Resilience carries the fault/repair counters.
	Resilience Stats
}

// Run simulates pushing the traces through the overlay under the fault
// plan: nodes crash and rejoin per the plan, neighbors exchange
// heartbeats, dependents detect dead parents after the silence window and
// re-home to their precomputed backups, and fidelity — and, with
// cfg.Push.Obs set, the per-node observability record — is measured
// exactly as in dissemination.Run, over the deliveries that reach live
// nodes. lela supplies the re-homing policy (preference
// function and augmentation); a nil plan runs fault-free.
//
// The overlay is mutated by repairs, like it is by construction; callers
// wanting the pre-fault overlay must rebuild it.
func Run(o *tree.Overlay, lela *tree.LeLA, traces []*trace.Trace, p dissemination.Protocol, cfg Config, plan *Plan) (*Result, error) {
	cfg = cfg.WithDefaults()
	if lela == nil {
		lela = &tree.LeLA{}
	}
	if len(traces) == 0 {
		return nil, fmt.Errorf("resilience: no traces to run")
	}
	initial := make(map[string]float64, len(traces))
	var horizon sim.Time
	for _, tr := range traces {
		if tr.Len() == 0 {
			return nil, fmt.Errorf("resilience: trace %s is empty", tr.Item)
		}
		if _, dup := initial[tr.Item]; dup {
			return nil, fmt.Errorf("resilience: duplicate trace for item %s", tr.Item)
		}
		initial[tr.Item] = tr.Ticks[0].Value
		if end := tr.Ticks[tr.Len()-1].At; end > horizon {
			horizon = end
		}
	}
	p.Init(o, initial)
	if cfg.Push.Obs != nil {
		if po, ok := p.(interface{ SetObs(*obs.Tree) }); ok {
			po.SetObs(cfg.Push.Obs)
		}
	}

	n := len(o.Nodes)
	r := &runner{
		o: o, lela: lela, cfg: cfg,
		engine:    sim.New(),
		protocol:  p,
		stations:  make([]sim.Station, n),
		alive:     make([]bool, n),
		dead:      make(map[repository.ID]bool),
		crashedAt: make([]sim.Time, n),
		values:    make([]map[string]float64, n),
		lastHeard: make([][]sim.Time, n),
		backups:   make([][]repository.ID, n),
		orphans:   make(map[repository.ID]map[string]sim.Time),
		byRepo:    make(map[string]map[repository.ID]*coherency.Tracker),
		trackers:  make(map[string][]repoTracker),
		killed:    make([]bool, n),
	}
	if cfg.Push.Obs != nil {
		r.obsNodes = make([]*obs.Node, n)
		for id := range r.obsNodes {
			r.obsNodes[id] = cfg.Push.Obs.Node(repository.ID(id))
		}
		r.tracer = cfg.Push.Obs.TracerOrNil()
	}
	for i := range r.alive {
		r.alive[i] = true
		r.lastHeard[i] = make([]sim.Time, n)
		r.values[i] = make(map[string]float64)
	}
	for x, v := range initial {
		r.values[repository.SourceID][x] = v
	}
	for _, node := range o.Repos() {
		for _, x := range node.Items() {
			if v, ok := initial[x]; ok {
				r.values[node.ID][x] = v
			}
		}
		r.backups[node.ID] = lela.BackupParents(o, node.ID, cfg.BackupK)
		for _, x := range node.NeededItems() {
			c := node.Needs[x]
			v, ok := initial[x]
			if !ok {
				return nil, fmt.Errorf("resilience: repository %d needs item %s with no trace", node.ID, x)
			}
			t := coherency.NewTracker(c, 0, v)
			if r.obsNodes != nil {
				on := r.obsNodes[node.ID]
				t.OnViolationEnd = func(start, end sim.Time) {
					on.ObserveViolation(int64(end - start))
				}
			}
			r.trackers[x] = append(r.trackers[x], repoTracker{repo: node.ID, tr: t})
			m := r.byRepo[x]
			if m == nil {
				m = make(map[repository.ID]*coherency.Tracker)
				r.byRepo[x] = m
			}
			m[node.ID] = t
		}
	}

	// Durable state: open (and recover) every repository's write-ahead
	// log before the clock starts. A directory left by a previous run —
	// the full-cluster-restart case — restores here, so this run resumes
	// with the previous run's exact per-item values and edge state. The
	// source is not logged: it regenerates from the traces.
	if cfg.Durability != nil {
		r.logs = make([]*wal.Log, n)
		defer func() {
			for _, l := range r.logs {
				if l != nil {
					l.Close()
				}
			}
		}()
		for _, q := range o.Repos() {
			id := q.ID
			l, rec, err := wal.Open(filepath.Join(cfg.Durability.Dir, fmt.Sprintf("repo%03d", id)), *cfg.Durability)
			if err != nil {
				return nil, fmt.Errorf("resilience: repository %d: %w", id, err)
			}
			r.logs[id] = l
			if !rec.Empty() {
				r.restore(id, rec)
				r.res.RestoredAtStart++
				r.res.ReplayedRecords += len(rec.Batches)
			}
		}
	}

	// Source-side trace ticks (quiet ticks cost nothing).
	for _, tr := range traces {
		last := tr.Ticks[0].Value
		for _, tk := range tr.Ticks[1:] {
			if tk.Value == last {
				continue
			}
			last = tk.Value
			item, v := tr.Item, tk.Value
			r.engine.At(tk.At, func(now sim.Time) { r.sourceTick(now, item, v) })
		}
	}

	// Fault-plan events. The victim of an AutoInterior fault is resolved
	// now, against the built overlay.
	if !plan.Empty() {
		auto := busiestInterior(o)
		for _, f := range plan.Faults {
			node := f.Node
			if node == AutoInterior {
				node = auto
			}
			if node <= 0 || int(node) >= n {
				return nil, fmt.Errorf("resilience: fault targets unknown repository %d", node)
			}
			id, kill := node, f.Kill
			r.engine.At(f.At, func(now sim.Time) { r.crash(now, id, kill) })
			if f.RejoinAt > 0 {
				r.engine.At(f.RejoinAt, func(now sim.Time) { r.rejoin(now, id) })
			}
		}
	}

	// Heartbeats and watchdogs, staggered deterministically per node so
	// the detection load does not arrive in lockstep.
	// Every node — source included — runs both loops: the source has no
	// parents to watch, but it must still drop dead children to free its
	// connection slots for repairs.
	for _, node := range o.Nodes {
		id := node.ID
		offset := sim.Time((int64(id)*7919 + 13) % int64(cfg.Heartbeat))
		r.engine.At(offset, func(now sim.Time) { r.heartbeat(now, id) })
		r.engine.At(offset+cfg.Heartbeat/2, func(now sim.Time) { r.watchdog(now, id) })
	}

	r.engine.RunUntil(horizon)
	if r.walErr != nil {
		return nil, r.walErr
	}

	report := coherency.NewReport()
	items := make([]string, 0, len(r.trackers))
	for x := range r.trackers {
		items = append(items, x)
	}
	sort.Strings(items)
	for _, x := range items {
		for _, rt := range r.trackers[x] {
			report.Add(int(rt.repo), rt.tr.Fidelity(horizon))
		}
	}
	r.stats.Events = r.engine.Processed()
	if r.res.RecoverySamples > 0 {
		r.res.MeanRecovery = r.recoverySum / sim.Time(r.res.RecoverySamples)
	}
	if r.res.DiskRecoveries > 0 {
		r.res.MeanReplay = r.res.ReplayTime / sim.Time(r.res.DiskRecoveries)
	}
	name := p.Name()
	if !plan.Empty() {
		name += "+faults"
	}
	return &Result{
		Result: &dissemination.Result{
			Protocol:          name,
			Report:            report,
			Stats:             r.stats,
			Horizon:           horizon,
			SourceUtilization: r.stations[repository.SourceID].Utilization(horizon),
		},
		Resilience: r.res,
	}, nil
}

// busiestInterior returns the repository serving the most dependents (the
// AutoInterior victim), preferring lower ids on ties; when no repository
// serves anyone (a direct overlay) it falls back to repository 1.
func busiestInterior(o *tree.Overlay) repository.ID {
	best, bestChildren := repository.ID(1), 0
	for _, n := range o.Repos() {
		if c := n.NumChildren(); c > bestChildren {
			best, bestChildren = n.ID, c
		}
	}
	return best
}

type repoTracker struct {
	repo repository.ID
	tr   *coherency.Tracker
}

// runner is the per-run simulation state.
type runner struct {
	o        *tree.Overlay
	lela     *tree.LeLA
	cfg      Config
	engine   *sim.Engine
	protocol dissemination.Protocol
	stations []sim.Station

	alive     []bool
	dead      map[repository.ID]bool // same fact as alive, shaped for tree.Rehome
	crashedAt []sim.Time
	values    []map[string]float64
	lastHeard [][]sim.Time // lastHeard[a][b]: when a last heard from b
	backups   [][]repository.ID
	// orphans holds feeds awaiting a live parent, each carrying the
	// causing crash's time (0 when unknown) so a later successful retry
	// still reports the full severed duration as recovery latency.
	orphans map[repository.ID]map[string]sim.Time

	trackers map[string][]repoTracker
	byRepo   map[string]map[repository.ID]*coherency.Tracker

	// logs are the per-repository write-ahead logs (nil without
	// durability; a killed node's slot is nil while it is down). killed
	// marks nodes whose in-memory state died with the process. walErr
	// records the first log failure; the run reports it at the end.
	logs   []*wal.Log
	killed []bool
	walErr error

	// obsNodes (indexed by node id) and tracer are non-nil only when
	// cfg.Push.Obs is set; the delivery path guards with one nil check.
	obsNodes []*obs.Node
	tracer   *obs.Tracer

	stats       dissemination.Stats
	res         Stats
	recoverySum sim.Time
}

// meta is the observability context riding alongside an update through
// the event graph: when it left the source, and its trace id (0 when the
// update is not sampled).
type meta struct {
	born sim.Time
	tid  uint64
}

// coreHost is implemented by protocols built on the shared repository
// core (Distributed and its naive variant); durable recovery restores
// values and edge filter state straight into the core. Protocols without
// one (AllPush) recover values only.
type coreHost interface {
	Core(repository.ID) *node.Core
}

// coreOf returns the protocol's core for id, nil when the protocol has
// none.
func (r *runner) coreOf(id repository.ID) *node.Core {
	if h, ok := r.protocol.(coreHost); ok {
		return h.Core(id)
	}
	return nil
}

// walState assembles the repository's current durable state for a
// snapshot: the core's values and seeded edges when the protocol has a
// core, the runner's value map alone otherwise.
func (r *runner) walState(id repository.ID) wal.State {
	if c := r.coreOf(id); c != nil {
		st := wal.State{Values: make(map[string]float64)}
		c.DumpDurable(
			func(item string, v float64) { st.Values[item] = v },
			func(dep repository.ID, item string, last float64, seeded bool) {
				st.Edges = append(st.Edges, wal.Edge{Dep: int64(dep), Item: item, Last: last, Seeded: seeded})
			})
		return st
	}
	vals := make(map[string]float64, len(r.values[id]))
	for x, v := range r.values[id] {
		vals[x] = v
	}
	return wal.State{Values: vals}
}

// restore applies recovered durable state to a repository: the snapshot
// verbatim, then the logged batches through the core's normal pipeline
// (a ReplayTransport accepts every send, so edge filter state advances
// exactly as before the crash).
func (r *runner) restore(id repository.ID, rec *wal.Recovered) {
	c := r.coreOf(id)
	if c != nil {
		// Replay rebuilds state; it is not traffic the node received.
		o := c.Obs()
		c.SetObs(nil)
		defer c.SetObs(o)
	}
	for x, v := range rec.State.Values {
		r.values[id][x] = v
		if c != nil {
			c.SetValue(x, v)
		}
	}
	if c != nil {
		for _, e := range rec.State.Edges {
			c.RestoreEdge(repository.ID(e.Dep), e.Item, e.Last, e.Seeded)
		}
	}
	for _, b := range rec.Batches {
		for _, u := range b {
			r.values[id][u.Item] = u.Value
			if c != nil {
				c.Apply(u.Item, u.Value, node.ReplayTransport{})
			}
		}
	}
}

// logDeliver appends a delivered update to the node's log and
// group-commits it (in the unbatched resilient runner a delivery is the
// batch boundary).
func (r *runner) logDeliver(id repository.ID, item string, v float64) {
	if r.logs == nil {
		return
	}
	l := r.logs[id]
	if l == nil {
		return
	}
	l.Append(item, v)
	if err := l.Commit(func() wal.State { return r.walState(id) }); err != nil && r.walErr == nil {
		r.walErr = err
	}
}

// sourceTick handles a changed value arriving at the source.
func (r *runner) sourceTick(now sim.Time, item string, v float64) {
	r.stats.SourceTicks++
	r.values[repository.SourceID][item] = v
	for _, rt := range r.trackers[item] {
		rt.tr.SourceUpdate(now, v)
	}
	if r.cfg.Observer != nil {
		r.cfg.Observer.ObserveSource(now, item, v)
	}
	m := meta{born: now}
	if r.tracer != nil {
		m.tid = r.tracer.Sample(item, repository.SourceID, int64(now))
	}
	fwd, checks := r.protocol.AtSource(item, v)
	r.stats.SourceChecks += uint64(checks)
	r.dispatch(now, r.o.Source(), item, v, fwd, checks, m)
}

// deliver handles an update copy arriving at a repository. Copies arriving
// at a dead node are dropped on the floor — exactly what a crashed process
// does with packets addressed to it. hop is the propagation delay since
// the sender received (or sourced) the update.
func (r *runner) deliver(now sim.Time, node *repository.Repository, from repository.ID, item string, v float64, tag coherency.Requirement, hop sim.Time, m meta) {
	if !r.alive[node.ID] {
		r.res.DroppedDeliveries++
		return
	}
	if r.obsNodes != nil {
		on := r.obsNodes[node.ID]
		on.ObserveHop(int64(hop))
		on.ObserveSourceLatency(int64(now - m.born))
		on.ObserveEdgeDelay(from, int64(hop))
		r.tracer.Hop(m.tid, node.ID, int64(now))
	}
	r.lastHeard[node.ID][from] = now
	r.stats.Deliveries++
	r.values[node.ID][item] = v
	if t := r.byRepo[item][node.ID]; t != nil {
		t.RepoUpdate(now, v)
	}
	if r.cfg.Observer != nil {
		r.cfg.Observer.ObserveDeliver(now, node.ID, item, v)
	}
	fwd, checks := r.protocol.AtRepo(node, item, v, tag)
	// The group commit sits after the protocol applied the update: a
	// commit that rotates snapshots the core, which must already hold
	// this update (the record carrying it is deleted with the old
	// segment).
	r.logDeliver(node.ID, item, v)
	r.stats.RepoChecks += uint64(checks)
	r.dispatch(now, node, item, v, fwd, checks, m)
}

// dispatch charges computational delays and schedules the sends, exactly
// like the dissemination runner's latency/queueing models.
func (r *runner) dispatch(now sim.Time, from *repository.Repository, item string, v float64, fwd []dissemination.Forward, checks int, m meta) {
	st := &r.stations[from.ID]
	var preamble sim.Time
	if extra := checks - len(fwd); extra > 0 && r.cfg.Push.CheckFrac > 0 {
		preamble = sim.Time(float64(r.cfg.Push.CompDelay) * r.cfg.Push.CheckFrac * float64(extra))
	}
	if r.cfg.Push.Queueing {
		if preamble > 0 {
			st.Acquire(now, preamble)
		}
		for _, f := range fwd {
			done := st.Acquire(now, r.cfg.Push.CompDelay)
			r.send(done, now, from.ID, item, v, f, m)
		}
		return
	}
	st.Busy += preamble + sim.Time(len(fwd))*r.cfg.Push.CompDelay
	st.Jobs++
	depart := now + preamble
	for _, f := range fwd {
		depart += r.cfg.Push.CompDelay
		r.send(depart, now, from.ID, item, v, f, m)
	}
}

// send emits one copy departing at the given time. recvAt is when the
// sender received the update, the anchor of the hop-delay measurement.
func (r *runner) send(depart, recvAt sim.Time, from repository.ID, item string, v float64, f dissemination.Forward, m meta) {
	r.stats.Messages++
	to := r.o.Node(f.To)
	arrive := depart + r.o.Net.Delay[from][f.To]
	tag := f.Tag
	if r.obsNodes == nil {
		// Without obs the delivery closure does not grow by the hop
		// metadata: every in-flight copy is one of these.
		r.engine.At(arrive, func(t sim.Time) { r.deliver(t, to, from, item, v, tag, 0, meta{}) })
		return
	}
	hop := arrive - recvAt
	r.engine.At(arrive, func(t sim.Time) { r.deliver(t, to, from, item, v, tag, hop, m) })
}

// crash takes a node down: it stops forwarding, heartbeating and
// accepting deliveries. Its edges stay in place until neighbors detect
// the silence. A kill is a process death on top of that: every byte of
// in-memory state — values, fan-out plans, edge filter state — is gone,
// and the node's log handle dies with the process (recovery reopens the
// directory, exactly like a restarted binary would).
func (r *runner) crash(now sim.Time, id repository.ID, kill bool) {
	if !r.alive[id] {
		return
	}
	r.alive[id] = false
	r.dead[id] = true
	r.crashedAt[id] = now
	r.res.Crashes++
	if kill {
		r.res.Kills++
		r.killed[id] = true
		r.values[id] = make(map[string]float64)
		if c := r.coreOf(id); c != nil {
			c.WipeDurable()
		}
		if r.logs != nil && r.logs[id] != nil {
			// The simulated process cannot fsync on its way out; Close here
			// stands in for the OS reclaiming the descriptor. Committed
			// records are already flushed, which is all recovery needs.
			if err := r.logs[id].Close(); err != nil && r.walErr == nil {
				r.walErr = err
			}
			r.logs[id] = nil
		}
	}
	if r.cfg.Observer != nil {
		r.cfg.Observer.ObserveCrash(now, id)
	}
}

// rejoin brings a downed node back. A plain crash warm-restarts
// immediately: stale copies are kept (they were stale the moment the
// process died). A killed node restarts as a fresh process: with
// durability it first recovers from disk — reopen the log directory,
// restore the snapshot, replay the records — and completes the rejoin
// after the modeled recovery delay; without durability it completes at
// once, cold, serving nothing until feeds resync (the bug this
// machinery fixes).
func (r *runner) rejoin(now sim.Time, id repository.ID) {
	if r.alive[id] {
		return
	}
	if r.killed[id] {
		r.killed[id] = false
		if r.cfg.Durability != nil {
			l, rec, err := wal.Open(filepath.Join(r.cfg.Durability.Dir, fmt.Sprintf("repo%03d", id)), *r.cfg.Durability)
			if err != nil {
				if r.walErr == nil {
					r.walErr = fmt.Errorf("resilience: repository %d recovery: %w", id, err)
				}
				return
			}
			r.logs[id] = l
			r.restore(id, rec)
			r.res.DiskRecoveries++
			r.res.ReplayedRecords += len(rec.Batches)
			delay := r.cfg.SnapshotLoad + sim.Time(len(rec.Batches))*r.cfg.ReplayPerRecord
			r.res.ReplayTime += delay
			// The node stays down (deliveries drop, heartbeats silent)
			// while it replays; the rejoin completes when replay does.
			r.engine.At(now+delay, func(t sim.Time) { r.completeRejoin(t, id) })
			return
		}
	}
	r.completeRejoin(now, id)
}

// completeRejoin finishes a restart: the node is alive again, detaches
// from stale parents, and re-homes every feed it serves.
func (r *runner) completeRejoin(now sim.Time, id repository.ID) {
	if r.alive[id] {
		return
	}
	r.alive[id] = true
	delete(r.dead, id)
	r.crashedAt[id] = 0
	r.res.Rejoins++
	if r.cfg.Observer != nil {
		r.cfg.Observer.ObserveRejoin(now, id)
	}

	q := r.o.Node(id)
	// Detach cleanly from every old parent (some already dropped us as a
	// dead child), then re-home every item the node still serves — its own
	// needs plus anything held for surviving dependents.
	for _, n := range r.o.Nodes {
		if n.ID != id {
			n.DropDependent(id)
		}
	}
	q.Parents = map[string]repository.ID{}
	q.Liaison = repository.NoID
	for _, x := range q.Items() {
		r.rehomeFeed(now, q, x, 0)
	}
	// Fresh silence clocks: the node should not instantly "detect" peers
	// it simply was not listening to while down.
	for i := range r.lastHeard[id] {
		r.lastHeard[id][i] = now
	}
}

// heartbeat sends keep-alives from id to its current overlay neighbors
// (children and parents both, so each side can detect the other), then
// reschedules itself.
func (r *runner) heartbeat(now sim.Time, id repository.ID) {
	r.engine.At(now+r.cfg.Heartbeat, func(t sim.Time) { r.heartbeat(t, id) })
	if !r.alive[id] {
		return
	}
	neighbors := append(r.o.ChildrenOf(id), r.o.ParentsOf(id)...)
	seen := make(map[repository.ID]bool, len(neighbors))
	for _, nb := range neighbors {
		if seen[nb] {
			continue
		}
		seen[nb] = true
		r.res.Heartbeats++
		arrive := now + r.o.Net.Delay[id][nb]
		nb := nb
		r.engine.At(arrive, func(t sim.Time) {
			if r.alive[nb] {
				r.lastHeard[nb][id] = t
			}
		})
	}
}

// watchdog is the per-repository detection pass: declare silent parents
// dead and re-home their feeds, drop silent children, retry orphaned
// feeds. It reschedules itself every heartbeat interval.
func (r *runner) watchdog(now sim.Time, id repository.ID) {
	r.engine.At(now+r.cfg.Heartbeat, func(t sim.Time) { r.watchdog(t, id) })
	if !r.alive[id] {
		return
	}
	window := r.cfg.Window()
	q := r.o.Node(id)

	for _, pid := range r.o.ParentsOf(id) {
		if now-r.lastHeard[id][pid] < window {
			continue
		}
		r.res.Detections++
		r.rehomeFrom(now, q, pid)
	}
	for _, cid := range r.o.ChildrenOf(id) {
		if now-r.lastHeard[id][cid] < window {
			continue
		}
		// A silent child gets its push connection dropped, freeing the
		// slot for re-homing repairs elsewhere. If it was merely slow it
		// re-homes itself onto a backup when it notices the silence.
		q.DropDependent(cid)
		r.res.ChildDrops++
	}
	if pending := r.orphans[id]; len(pending) > 0 {
		items := make([]string, 0, len(pending))
		for x := range pending {
			items = append(items, x)
		}
		sort.Strings(items)
		for _, x := range items {
			r.rehomeFeed(now, q, x, pending[x])
		}
	}
}

// rehomeFrom re-homes every feed dependent q receives from the (detected
// dead) parent pid. The parent's crash time rides along so recovery
// latency is measured crash-to-re-home, however many retries that takes.
func (r *runner) rehomeFrom(now sim.Time, q *repository.Repository, pid repository.ID) {
	items := make([]string, 0, len(q.Parents))
	for x, p := range q.Parents {
		if p == pid {
			items = append(items, x)
		}
	}
	sort.Strings(items)
	r.o.Node(pid).DropDependent(q.ID)
	if q.Liaison == pid {
		q.Liaison = repository.NoID
	}
	var crashed sim.Time
	if !r.alive[pid] {
		crashed = r.crashedAt[pid]
	}
	for _, x := range items {
		delete(q.Parents, x)
		r.rehomeFeed(now, q, x, crashed)
	}
}

// rehomeFeed re-establishes q's feed for item x: first live precomputed
// backup with capacity, then a full re-ranking, orphaning the feed for a
// later watchdog retry when nothing has room. On success the new parent
// immediately pushes its current copy so the dependent converges without
// waiting for the next source tick. crashed is the causing crash's time
// (0 when not crash-induced); a recovery-latency sample is recorded only
// here, when the feed actually lands on a live parent.
func (r *runner) rehomeFeed(now sim.Time, q *repository.Repository, x string, crashed sim.Time) {
	var parent repository.ID = repository.NoID
	var sub map[repository.ID]bool
	for _, b := range r.backups[q.ID] {
		if !r.alive[b] {
			continue
		}
		if sub == nil {
			sub = r.o.Subtree(q.ID) // once per repair; attempts don't rewire
		}
		if err := r.lela.AdoptFeed(r.o, r.o.Node(b), q, x, sub); err == nil {
			parent = b
			break
		}
	}
	if parent == repository.NoID {
		pid, err := r.lela.Rehome(r.o, q, x, r.dead)
		if err != nil {
			if r.orphans[q.ID] == nil {
				r.orphans[q.ID] = make(map[string]sim.Time)
			}
			if _, seen := r.orphans[q.ID][x]; !seen {
				r.orphans[q.ID][x] = crashed
				r.res.Orphaned++
			}
			return
		}
		parent = pid
	}
	delete(r.orphans[q.ID], x)
	r.res.Rehomed++
	if crashed > 0 {
		sample := now - crashed
		r.recoverySum += sample
		r.res.RecoverySamples++
		if sample > r.res.MaxRecovery {
			r.res.MaxRecovery = sample
		}
	}
	// The adoption handshake counts as hearing from the new parent —
	// without this the stale silence clock could instantly "detect" it.
	r.lastHeard[q.ID][parent] = now
	r.lastHeard[parent][q.ID] = now
	// Sync push: the new parent ships its current copy through the normal
	// cost model — it queues at the parent's station like any other copy.
	v, ok := r.values[parent][x]
	if !ok {
		v = r.values[repository.SourceID][x]
	}
	// Re-seed the protocol's per-edge filter state to the synced value: a
	// revived edge (crash-and-rejoin back onto the old parent) would
	// otherwise filter against its pre-crash state and withhold updates.
	if er, ok := r.protocol.(edgeResetter); ok {
		er.ResetEdge(parent, q.ID, x, v)
	}
	// The sync copy originates here, so its source latency counts from
	// now.
	r.dispatch(now, r.o.Node(parent), x, v, []dissemination.Forward{{To: q.ID}}, 0, meta{born: now})
}

// edgeResetter is implemented by protocols with per-edge filter state
// (Distributed and its naive variant); stateless protocols need nothing.
type edgeResetter interface {
	ResetEdge(from, to repository.ID, x string, v float64)
}
