package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"d3t"
	"d3t/internal/repository"
)

// The live-stream and tcp-durable workloads share one world: a LeLA
// overlay of 30 repositories over 20 items at cooperation degree 4, needs
// from AssignNeeds (SubscribeProb 0.5, T=0.5), every copy seeded, and two
// client sessions that watch everything the two deepest leaves serve, at
// those leaves' tolerances. Each run makes several rounds; a round sets
// the world up, runs the closed-loop phase, then the open-loop phase,
// checks the outputs and tears the world down.
const (
	streamRepos   = 30
	streamRouters = 180
	streamItems   = 20
	streamCoop    = 4

	// batchSize is the closed-loop PublishBatch size.
	batchSize = 64

	// The open loop publishes openPerTick updates every openTick: a fixed
	// 10,000 updates/s whatever the runtime does.
	openTick    = time.Millisecond
	openPerTick = 10
	// latencyWindow groups open-loop samples by due time; each window
	// reports its own p50/p99 (see summarizeWindows).
	latencyWindow = time.Second

	// A run makes rounds until its measurement time is spent, and at
	// least minRounds so setup_s is a median of several set-ups. Every
	// round builds a fresh cluster; clusters differ in goroutine and map
	// layout, so many short rounds average that out where a few long ones
	// would not. A round's open loop lasts openTicksPerRound ticks, one
	// latency window.
	minRounds         = 3
	openTicksPerRound = 1000

	// jump separates consecutive stream segments and sentinels by far
	// more than any tolerance (tolerances are below 1).
	jump = 1000.0

	barrierTimeout = 30 * time.Second

	// calPerSegment is how many calibrations (calib.go) follow each
	// closed-loop segment: single calibrations vary by a fifth on a
	// shared host, so a run takes the median of many.
	calPerSegment = 4

	// shapeSeed fixes the deployment of both stream workloads: network,
	// needs, overlay, and each item's price band, step size and trading
	// rate. The run's seed draws the price paths. Drawing the deployment
	// per seed too would change the work per update by a quarter from
	// seed to seed and drown every other difference.
	shapeSeed = 1
)

// streamWorld is one round's set-up: inputs, overlay and the two
// sessions' watch lists.
type streamWorld struct {
	overlay *d3t.Overlay
	initial map[string]float64
	items   []string
	// closed and open are the base random walks of the two phases;
	// closedBase is closed in PublishBatch-sized batches.
	closed, open []update
	closedBase   [][]update
	// leaves are the two deepest leaves the sessions watch.
	leaves [2]*d3t.Repository
	spans  map[string]float64
	t0     time.Time
	cpu0   time.Duration
}

// buildStream generates the world's inputs and overlay for a seed: a
// closed-loop segment of segmentUpdates updates and an open loop of
// openUpdates.
func buildStream(seed int64, segmentUpdates, openUpdates int) (*streamWorld, error) {
	w := &streamWorld{spans: make(map[string]float64), t0: time.Now(), cpu0: cpuNow()}
	net, err := d3t.GenerateNetwork(d3t.NetworkConfig{Repositories: streamRepos, Routers: streamRouters, Seed: shapeSeed})
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	// Stock-like walks change on 20-60% of ticks; generate enough ticks
	// for both phases with a wide margin, then check.
	need := segmentUpdates + openUpdates
	traces, err := stockTraces(streamItems, need/streamItems*5+100, shapeSeed+10, seed)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	flat := flatten(traces)
	if len(flat) < need {
		return nil, fmt.Errorf("stream: %d updates generated, %d needed", len(flat), need)
	}
	w.closed, w.open = flat[:segmentUpdates], flat[segmentUpdates:need]
	w.closedBase = w.closedBatches(0)
	w.initial = make(map[string]float64, len(traces))
	for _, tr := range traces {
		w.items = append(w.items, tr.Item)
		w.initial[tr.Item] = tr.Ticks[0].Value
	}
	t3 := time.Now()
	repos := make([]*d3t.Repository, streamRepos)
	for i := range repos {
		repos[i] = d3t.NewRepository(d3t.RepositoryID(i+1), streamCoop)
	}
	repository.AssignNeeds(repos, repository.Workload{
		Items:         w.items,
		SubscribeProb: 0.5,
		StringentFrac: 0.5,
		Seed:          shapeSeed + 11,
	})
	t4 := time.Now()
	w.overlay, err = d3t.NewLeLA(5, shapeSeed+2).Build(net, repos, streamCoop)
	if err != nil {
		return nil, err
	}
	t5 := time.Now()
	w.leaves = deepestLeaves(w.overlay)
	w.spans["netsim.generate_ms"] = ms(t1.Sub(w.t0))
	w.spans["trace.generate_ms"] = ms(t2.Sub(t1))
	w.spans["serve.place_ms"] = ms(t4.Sub(t3))
	w.spans["tree.build_ms"] = ms(t5.Sub(t4))
	return w, nil
}

// stockTraces draws n stock-like traces, one tick a second, the way
// d3t.GenerateTraces does, except that the items' price bands, step
// sizes and trading rates come from shapeSeed while their price paths
// come from walkSeed. With both seeds s it returns exactly
// GenerateTraces(n, ticks, d3t.Second, s).
func stockTraces(n, ticks int, shapeSeed, walkSeed int64) ([]*d3t.Trace, error) {
	rng := rand.New(rand.NewSource(shapeSeed))
	out := make([]*d3t.Trace, n)
	for i := range out {
		start := 10 + rng.Float64()*90
		band := 0.3 + rng.Float64()*0.8
		step := 0.01 + rng.Float64()*0.05
		hold := 0.4 + rng.Float64()*0.4
		tr, err := d3t.GenerateTrace(d3t.TraceConfig{
			Item:     fmt.Sprintf("ITEM%03d", i),
			Ticks:    ticks,
			Interval: d3t.Second,
			Start:    start,
			Low:      start - band/2,
			High:     start + band/2,
			Step:     step,
			HoldProb: hold,
			Seed:     walkSeed + int64(i)*7919,
		})
		if err != nil {
			return nil, err
		}
		out[i] = tr
	}
	return out, nil
}

// flatten turns traces into one stream of value changes, tick by tick.
func flatten(traces []*d3t.Trace) []update {
	var out []update
	for _, b := range simBatches(traces, math.MaxInt) {
		out = append(out, b...)
	}
	return out
}

// deepestLeaves returns the two repositories with no dependents at the
// greatest overlay level (ties by id) that serve something.
func deepestLeaves(o *d3t.Overlay) [2]*d3t.Repository {
	var leaves []*d3t.Repository
	for _, r := range o.Repos() {
		if r.NumChildren() == 0 && len(r.Serving) > 0 {
			leaves = append(leaves, r)
		}
	}
	sort.Slice(leaves, func(i, j int) bool {
		if leaves[i].Level != leaves[j].Level {
			return leaves[i].Level > leaves[j].Level
		}
		return leaves[i].ID < leaves[j].ID
	})
	return [2]*d3t.Repository{leaves[0], leaves[1]}
}

// wants is a leaf's serving set as a session watch list.
func wants(r *d3t.Repository) map[string]d3t.Requirement {
	out := make(map[string]d3t.Requirement, len(r.Serving))
	for item, c := range r.Serving {
		out[item] = c
	}
	return out
}

// cluster is a started runtime as the stream workloads drive it.
type cluster interface {
	// stage converts batches, every value raised by lift, to the
	// runtime's own update type ahead of timing; publish(i) publishes
	// staged batch i with one PublishBatch.
	stage(batches [][]update, lift float64)
	publish(i int) error
	// value reads a repository's copy of item.
	value(id d3t.RepositoryID, item string) (float64, bool)
	// forwarded sums every repository's forwarded copies to dependents.
	forwarded() uint64
	// sessions reports the sessions' core-side delivery decisions
	// (attempted deliveries), filtered updates and deliveries lost.
	sessions() (delivered, filtered, dropped uint64)
	// durabilityErr reports the first write-ahead-log failure.
	durabilityErr() error
	close()
}

// startFunc starts a runtime over a world, wiring both sessions to
// recv, and records its start time in w.spans.
type startFunc func(r *run, w *streamWorld, round int, recv *receiver) (cluster, error)

// receiver is what the session consumers feed: it turns open-loop
// receipts into due-time latency samples.
type receiver struct {
	open atomic.Pointer[openPhase]
	mu   sync.Mutex
	// windows holds the latency samples (µs) of every round, by window.
	windows [][]float64
}

// openPhase maps each open-loop value to its tick, so a receipt can be
// timed from when the update was due.
type openPhase struct {
	start time.Time
	due   map[dueKey]int
	// base offsets this phase's window indexes within receiver.windows.
	base int
}

type dueKey struct {
	item string
	bits uint64
}

// consume records one session receipt.
func (rc *receiver) consume(item string, v float64, resync bool, at time.Time) {
	if resync {
		return
	}
	p := rc.open.Load()
	if p == nil {
		return
	}
	tick, ok := p.due[dueKey{item, math.Float64bits(v)}]
	if !ok {
		return
	}
	due := dueAt(p.start, tick)
	lat := at.Sub(due)
	w := p.base + int(due.Sub(p.start)/latencyWindow)
	rc.mu.Lock()
	for len(rc.windows) <= w {
		rc.windows = append(rc.windows, nil)
	}
	rc.windows[w] = append(rc.windows[w], us(lat))
	rc.mu.Unlock()
}

// dueAt is when open-loop tick i is due: the generator publishes it then
// (its lateness is the generator's lag) and latency counts from it.
func dueAt(start time.Time, tick int) time.Time { return start.Add(time.Duration(tick) * openTick) }

// streamRun accumulates a run's per-round observations.
type streamRun struct {
	rates, wallRates     []float64
	rssPeaks             []float64
	runMs, drainMs       []float64
	tracedRates          []float64
	publishUs            []float64
	lagUs                []float64
	spans                []map[string]float64
	published, forwarded uint64
	checks               uint64
	delivered, filtered  uint64
	dropped              uint64
	// ref is the replay of the sequence every round publishes.
	ref *reference
	// cal calibrates between closed-loop segments; its factor scales
	// updates_per_s and setup_s (see calib.go).
	cal *calibrator
}

// reference is the replay's decision totals for one published sequence.
type reference struct{ forwards, checks uint64 }

// streamSpec is one runtime's stream workload: how to start it, the
// closed-loop segments per round and their length (about a second's
// work per round), and the layers its updates cross.
type streamSpec struct {
	start          startFunc
	segments       int
	segmentUpdates int
	path           int
}

// streamWorkload runs a stream workload on the runtime spec names.
func streamWorkload(r *run, spec streamSpec) error {
	rc := &receiver{}
	sr := &streamRun{}
	cal, err := newCalibrator()
	if err != nil {
		return err
	}
	defer cal.close()
	sr.cal = cal
	var ledgerWorld *streamWorld
	begin := time.Now()
	for round := 0; round < minRounds || time.Since(begin) < r.seconds; round++ {
		runtime.GC()
		rss := sampleRSS()
		w, err := buildStream(r.seed, spec.segmentUpdates, openTicksPerRound*openPerTick)
		if err != nil {
			rss.peak()
			return err
		}
		if sr.ref == nil {
			ref, err := w.reference(spec.segments, openTicksPerRound)
			if err != nil {
				return err
			}
			sr.ref = &ref
		}
		ledgerWorld = w
		traced := r.traced && round > 0
		err = sr.round(r, w, round, spec, rc, traced)
		sr.rssPeaks = append(sr.rssPeaks, rss.peak())
		if err != nil {
			return err
		}
		if len(r.problems) > 0 {
			break // a stuck or diverging cluster would only repeat itself
		}
	}
	setupMedians(r, sr.spans)

	lat, ok := summarizeWindows(rc.windows)
	r.check(ok, "open loop gave %d latency samples, too few for a p99", lat.Samples)
	r.note("latency samples: %d in %d windows of %v (due time to session receipt); window p50s: %.0f; window p99s: %.0f",
		lat.Samples, lat.Windows, latencyWindow, lat.WindowP50, lat.WindowP99)
	r.set("latency_p50_us", lat.P50)
	r.set("latency_p99_us", lat.P99)
	r.set("latency_samples", float64(lat.Samples))
	lag := sortedCopy(sr.lagUs)
	r.set("loadgen.lag_us.p50", quantile(lag, 0.50))
	r.set("loadgen.lag_us.p99", quantile(lag, 0.99))
	r.note("loadgen.lag samples: %d", len(lag))
	f := sr.cal.factor(r)
	r.set("updates_per_s", median(sr.rates)*f)
	r.set("updates_per_cpu_s", median(sr.rates))
	r.set("updates_per_wall_s", median(sr.wallRates))
	r.set("setup_s", r.metrics["setup_cpu_s"]/f)
	// Each round's peak less the calibration table, which is resident
	// throughout.
	r.set("peak_rss_mb", median(sr.rssPeaks)-sr.cal.residentMiB)
	r.set("dissemination.run_ms", median(sr.runMs))
	r.set("barrier.drain_ms", median(sr.drainMs))
	r.note("closed-loop segments: %d, updates per CPU second per segment: %.0f", len(sr.rates), sr.rates)
	r.set("messages_per_update", float64(sr.forwarded)/float64(sr.published))
	r.set("dissemination.checks_per_update", float64(sr.checks)/float64(sr.published))
	r.set("serve.delivered_per_update", float64(sr.delivered)/float64(sr.published))
	r.set("serve.pass_ratio", float64(sr.delivered)/float64(sr.delivered+sr.filtered))
	r.set("serve.session_dropped", float64(sr.dropped))
	r.set("serve.session_drop_ratio", float64(sr.dropped)/float64(sr.delivered))
	r.set("failed_ops_ratio", float64(r.failed)/float64(r.attempted))
	if r.traced {
		pub := sortedCopy(sr.publishUs)
		r.set("source.publish_us.p50", quantile(pub, 0.50))
		r.set("source.publish_us.p99", quantile(pub, 0.99))
		r.note("source.publish_us samples: %d", len(pub))
		untraced, traced := sr.rates[:len(sr.rates)-len(sr.tracedRates)], sr.tracedRates
		r.set("trace.overhead_pct", 100*(median(untraced)-median(traced))/median(untraced))
		rate := median(untraced)
		w := ledgerWorld
		batches := w.closedBatches(0)
		batches = batches[:min(len(batches), ledgerUpdates/batchSize)]
		led := newLedger(w.overlay, w.initial, batches, r.dir)
		return led.measure(r, rate, spec.path)
	}
	return nil
}

// closedBatches is closed-loop segment k: the base walk lifted by k
// jumps (the same lift stage applies), in PublishBatch-sized batches.
func (w *streamWorld) closedBatches(k int) [][]update {
	var out [][]update
	for i := 0; i < len(w.closed); i += batchSize {
		end := min(i+batchSize, len(w.closed))
		b := make([]update, end-i)
		for j, u := range w.closed[i:end] {
			b[j] = update{u.item, u.value + lift(k)}
		}
		out = append(out, b)
	}
	return out
}

// lift is segment k's offset.
func lift(k int) float64 { return float64(k) * jump }

// sentinels is one batch moving every item to a value beyond every
// tolerance from anything published before and from the next segment
// (lifted k jumps): the drain barrier waits for every copy to hold it.
func (w *streamWorld) sentinels(k int) []update {
	b := make([]update, len(w.items))
	for i, item := range w.items {
		b[i] = update{item, w.initial[item] + lift(k) + jump/2}
	}
	return b
}

// openBatches is the open-loop stream lifted k jumps, one batch per
// tick, each value nudged to be unique so a receipt names its tick.
func (w *streamWorld) openBatches(k, ticks int) ([][]update, map[dueKey]int, error) {
	out := make([][]update, ticks)
	due := make(map[dueKey]int, ticks*openPerTick)
	for t := range out {
		b := make([]update, openPerTick)
		for j := range b {
			i := t*openPerTick + j
			u := w.open[i]
			b[j] = update{u.item, u.value + lift(k) + float64(i)*1e-9}
			key := dueKey{u.item, math.Float64bits(b[j].value)}
			if _, dup := due[key]; dup {
				return nil, nil, fmt.Errorf("open-loop value %v of %s is not unique", b[j].value, u.item)
			}
			due[key] = t
		}
		out[t] = b
	}
	return out, due, nil
}

// copyRef names one repository's copy of one item.
type copyRef struct {
	id   d3t.RepositoryID
	item string
}

// holdings lists the copies the barrier checks: every item at the
// source, the serving set elsewhere.
func holdings(o *d3t.Overlay, items []string) []copyRef {
	var out []copyRef
	for _, n := range o.Nodes {
		for _, item := range items {
			if _, ok := n.Serving[item]; ok || n.IsSource() {
				out = append(out, copyRef{n.ID, item})
			}
		}
	}
	return out
}

// notYet filters pending down to the copies that do not yet hold their
// sentinel value, reusing pending's storage. The barrier holds when it
// returns nothing. Copies only move forward (nothing is published while
// the barrier waits), so a copy that reached its sentinel is never
// checked again.
func notYet(pending []copyRef, sentinel map[string]float64,
	value func(d3t.RepositoryID, string) (float64, bool)) []copyRef {
	out := pending[:0]
	for _, c := range pending {
		if v, ok := value(c.id, c.item); !ok || v != sentinel[c.item] {
			out = append(out, c)
		}
	}
	return out
}

// awaitBarrier polls until every held copy equals its sentinel or the
// timeout passes.
func awaitBarrier(c cluster, hold []copyRef, sentinel []update) bool {
	want := make(map[string]float64, len(sentinel))
	for _, u := range sentinel {
		want[u.item] = u.value
	}
	pending := append([]copyRef(nil), hold...)
	deadline := time.Now().Add(barrierTimeout)
	for {
		if pending = notYet(pending, want, c.value); len(pending) == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// round runs one set-up, the closed and open loops, and the checks.
func (sr *streamRun) round(r *run, w *streamWorld, round int, spec streamSpec, rc *receiver, traced bool) (err error) {
	c, err := spec.start(r, w, round, rc)
	if err != nil {
		return err
	}
	defer c.close()
	w.spans["setup_wall_s"] = time.Since(w.t0).Seconds()
	w.spans["setup_cpu_s"] = (cpuNow() - w.cpu0).Seconds()
	sr.spans = append(sr.spans, w.spans)
	hold := holdings(w.overlay, w.items)
	var published uint64
	publishAll := func(batches [][]update, lift float64, timed bool) {
		c.stage(batches, lift)
		for i := range batches {
			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			err := c.publish(i)
			if timed {
				sr.publishUs = append(sr.publishUs, us(time.Since(t0)))
			}
			n := uint64(len(batches[i]))
			r.attempted += n
			if err != nil {
				r.failed += n
				r.check(false, "publish: %v", err)
			}
			published += n
		}
	}
	barrier := func(k int) bool {
		s := w.sentinels(k)
		publishAll([][]update{s}, 0, false)
		if !awaitBarrier(c, hold, s) {
			r.failed++
			r.check(false, "round %d: drain barrier %d not reached within %v", round+1, k, barrierTimeout)
			return false
		}
		return true
	}

	if traced {
		if err := startProfile(); err != nil {
			return err
		}
		defer func() {
			if perr := r.stopProfile(); err == nil {
				err = perr
			}
		}()
	}
	// Closed loop: each segment as fast as the runtime takes it.
	k := 0
	for ; k < spec.segments; k++ {
		t0, cpu0 := time.Now(), cpuNow()
		publishAll(w.closedBase, lift(k), traced)
		t1 := time.Now()
		if !barrier(k) {
			return nil
		}
		t2, cpu2 := time.Now(), cpuNow()
		rate := float64(spec.segmentUpdates) / (cpu2 - cpu0).Seconds()
		sr.rates = append(sr.rates, rate)
		sr.wallRates = append(sr.wallRates, float64(spec.segmentUpdates)/t2.Sub(t0).Seconds())
		if traced {
			sr.tracedRates = append(sr.tracedRates, rate)
		}
		sr.runMs = append(sr.runMs, ms(t2.Sub(t0)))
		sr.drainMs = append(sr.drainMs, ms(t2.Sub(t1)))
		// The cluster is idle between segments.
		for range calPerSegment {
			sr.cal.calibrate()
		}
	}

	// Open loop: one batch per tick at its due time, however late.
	batches, due, err := w.openBatches(k, openTicksPerRound)
	if err != nil {
		return err
	}
	c.stage(batches, 0)
	rc.mu.Lock()
	base := len(rc.windows)
	rc.mu.Unlock()
	phase := &openPhase{start: time.Now().Add(5 * time.Millisecond), due: due, base: base}
	rc.open.Store(phase)
	for i := range batches {
		at := dueAt(phase.start, i)
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		sr.lagUs = append(sr.lagUs, us(time.Since(at)))
		n := uint64(len(batches[i]))
		r.attempted += n
		if err := c.publish(i); err != nil {
			r.failed += n
			r.check(false, "publish: %v", err)
		}
		published += n
	}
	ok := barrier(k)
	rc.open.Store(nil)
	if !ok {
		return nil
	}

	// Checks: every forwarded copy matches the standalone replay of the
	// same batches, and no WAL failed.
	ref := *sr.ref
	got := c.forwarded()
	r.check(got == ref.forwards, "round %d: runtime forwarded %d copies, replay of the same batches forwards %d", round+1, got, ref.forwards)
	if err := c.durabilityErr(); err != nil {
		r.failed++
		r.check(false, "round %d: %v", round+1, err)
	}
	// Session drops are the runtimes' queue overflow at saturation: they
	// depend on scheduling, so they are measured (serve.session_dropped),
	// not counted as failed operations of the benchmark.
	delivered, filtered, dropped := c.sessions()
	sr.delivered += delivered
	sr.filtered += filtered
	sr.dropped += dropped
	sr.published += published
	sr.forwarded += got
	sr.checks += ref.checks
	r.note("round %d: %d updates published, %d copies forwarded (replay %d), sessions delivered %d dropped %d",
		round+1, published, got, ref.forwards, delivered, dropped)
	return nil
}

// reference replays, through standalone cores, the sequence a round with
// k closed-loop segments and openTicks open-loop ticks publishes: each
// segment and its sentinels, then the open loop and its sentinels.
func (w *streamWorld) reference(k, openTicks int) (reference, error) {
	rp := newReplay(w.overlay, w.initial, nil)
	replay := func(batches [][]update) {
		coalesced, _ := coalesce(batches)
		rp.run(coalesced)
	}
	for seg := 0; seg < k; seg++ {
		replay(w.closedBatches(seg))
		replay([][]update{w.sentinels(seg)})
	}
	open, _, err := w.openBatches(k, openTicks)
	if err != nil {
		return reference{}, err
	}
	replay(open)
	replay([][]update{w.sentinels(k)})
	return reference{rp.forwards, rp.checks}, nil
}
