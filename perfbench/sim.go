package main

import (
	"math"
	"runtime"
	"sort"
	"time"

	"d3t"
)

// The sim-clients workload: the paper's base case (d3t.DefaultConfig:
// 100 repositories, 600 routers, 100 stock-like items x 10,000 ticks,
// LeLA with Eq. 2 controlled cooperation, Eqs. 3+7 with a 12.5 ms
// computational delay) plus a Section 1.2 population of 2,000 clients,
// run closed-loop on the discrete-event simulator in one goroutine. It is
// composed from the building blocks RunExperiment uses so that set-up
// and dissemination are timed apart.

// simClientCount is the client population on top of the base case.
const simClientCount = 2000

// simConfig is the workload's configuration: the base case keeps its
// own seed, which fixes the deployment (network, clients, overlay, and
// each item's price band, step and trading rate); the run's seed draws
// the price paths (see buildSim). Drawing the deployment per seed too
// would move the work per update by a tenth and the simulated latency
// tail by a third from seed to seed.
func simConfig() d3t.Config {
	cfg := d3t.DefaultConfig()
	cfg.Clients = simClientCount
	return cfg
}

// simWorld is one set-up: every input built and the overlay constructed,
// ready for RunPush.
type simWorld struct {
	cfg     d3t.Config
	traces  []*d3t.Trace
	fleet   *d3t.ClientFleet
	overlay *d3t.Overlay
	initial map[string]float64
	// spans holds the set-up's per-layer times in milliseconds.
	spans map[string]float64
}

// buildSim composes the experiment's set-up exactly as RunExperiment
// does for a client population, timing each layer's calls. The traces'
// price paths come from walkSeed; with walkSeed = cfg.Seed+10 the world
// is RunExperiment's.
func buildSim(cfg d3t.Config, walkSeed int64) (*simWorld, error) {
	w := &simWorld{cfg: cfg, spans: make(map[string]float64)}
	t0, cpu0 := time.Now(), cpuNow()
	net, err := d3t.GenerateNetwork(d3t.NetworkConfig{
		Repositories:    cfg.Repositories,
		Routers:         cfg.Routers,
		LinkDelayMinMs:  cfg.LinkDelayMinMs,
		LinkDelayMeanMs: cfg.LinkDelayMeanMs,
		Seed:            cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	w.traces, err = stockTraces(cfg.Items, cfg.Ticks, cfg.Seed+10, walkSeed)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	catalogue := make([]string, len(w.traces))
	for i, tr := range w.traces {
		catalogue[i] = tr.Item
	}
	repos := make([]*d3t.Repository, cfg.Repositories)
	ids := make([]d3t.RepositoryID, cfg.Repositories)
	for i := range repos {
		ids[i] = d3t.RepositoryID(i + 1)
		repos[i] = d3t.NewRepository(ids[i], 1)
	}
	clients, err := d3t.GenerateClients(d3t.ClientWorkload{
		Clients:        cfg.Clients,
		Repos:          ids,
		Items:          catalogue,
		ItemsPerClient: cfg.ItemsPerClient,
		StringentFrac:  cfg.StringentFrac,
		Seed:           cfg.Seed + 13,
	})
	if err != nil {
		return nil, err
	}
	w.fleet, err = d3t.NewClientFleet(net, repos, d3t.FleetOptions{Cap: cfg.SessionCap, Interval: cfg.TickInterval})
	if err != nil {
		return nil, err
	}
	if err := w.fleet.AttachAll(clients); err != nil {
		return nil, err
	}
	if err := d3t.DeriveNeeds(repos, clients); err != nil {
		return nil, err
	}
	t3 := time.Now()
	coop := d3t.ControlledCoopDegree(net.AvgDelay(), d3t.Milliseconds(cfg.CompDelayMs), cfg.Repositories, cfg.CoopK)
	for _, r := range repos {
		r.CoopLimit = coop
	}
	lela := d3t.NewLeLA(cfg.PPercent, cfg.Seed+2)
	w.overlay, err = lela.Build(net, repos, coop)
	if err != nil {
		return nil, err
	}
	t4 := time.Now()
	w.initial = make(map[string]float64, len(w.traces))
	for _, tr := range w.traces {
		w.initial[tr.Item] = tr.Ticks[0].Value
	}
	w.fleet.Seed(w.initial)
	t5 := time.Now()
	w.spans["netsim.generate_ms"] = ms(t1.Sub(t0))
	w.spans["trace.generate_ms"] = ms(t2.Sub(t1))
	w.spans["serve.place_ms"] = ms(t3.Sub(t2))
	w.spans["tree.build_ms"] = ms(t4.Sub(t3))
	w.spans["runtime.start_ms"] = ms(t5.Sub(t4))
	w.spans["setup_wall_s"] = t5.Sub(t0).Seconds()
	w.spans["setup_cpu_s"] = (cpuNow() - cpu0).Seconds()
	return w, nil
}

// simOutcome is what one RunPush of a world produced. Every field but
// the times is a deterministic function of the seed.
type simOutcome struct {
	lossPct, clientLossPct float64
	messages, sourceTicks  uint64
	checks                 uint64
	delivered, filtered    uint64

	wall time.Duration
	// tickCPU holds the CPU time (µs) the simulator's thread spent on
	// each simulated source tick, and tickChanges that tick's source
	// changes; drain is the wall time from the last tick to RunPush's
	// return.
	tickCPU     []float64
	tickChanges []int
	drain       time.Duration
}

func (a simOutcome) sameResult(b simOutcome) bool {
	return a.lossPct == b.lossPct && a.clientLossPct == b.clientLossPct &&
		a.messages == b.messages && a.sourceTicks == b.sourceTicks &&
		a.checks == b.checks && a.delivered == b.delivered && a.filtered == b.filtered
}

// chunkTicks is how many consecutive source ticks make one throughput
// sample (about a tenth of a second of simulator time).
const chunkTicks = 100

// chunkRates returns the source changes per second of the simulator
// thread's CPU time over each run of chunkTicks ticks.
func (o simOutcome) chunkRates() []float64 {
	var out []float64
	for i := 0; i+chunkTicks <= len(o.tickCPU); i += chunkTicks {
		var cpu float64
		changes := 0
		for j := i; j < i+chunkTicks; j++ {
			cpu += o.tickCPU[j]
			changes += o.tickChanges[j]
		}
		out = append(out, float64(changes)/(cpu/1e6))
	}
	return out
}

// push runs the world's dissemination with the fleet as the observer,
// calibrating every calEveryTicks ticks.
// The simulator runs in the calling goroutine, locked to its thread so
// the thread's CPU time is the simulator's: its own work, allocation and
// the garbage collection it assists with, but neither the collector's
// background workers, which run on an idle core only when one is idle,
// nor the time the machine gives to other work.
func (w *simWorld) push(cal *calibrator) (simOutcome, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	ob := &tickObserver{fleet: w.fleet, tick: -1, cal: cal}
	t0 := time.Now()
	ob.last, ob.lastCPU = t0, threadCPUNow()
	res, err := d3t.RunPush(w.overlay, w.traces, d3t.NewDistributed(), d3t.PushConfig{
		CompDelay: d3t.Milliseconds(w.cfg.CompDelayMs),
		Queueing:  w.cfg.Queueing,
		Observer:  ob,
	})
	end := time.Now()
	if err != nil {
		return simOutcome{}, err
	}
	st := w.fleet.Finalize(res.Horizon)
	return simOutcome{
		lossPct:       res.Report.LossPercent(),
		clientLossPct: st.LossPercent,
		messages:      res.Stats.Messages,
		sourceTicks:   res.Stats.SourceTicks,
		checks:        res.Stats.SourceChecks + res.Stats.RepoChecks,
		delivered:     st.Delivered,
		filtered:      st.Filtered,
		wall:          end.Sub(t0),
		tickCPU:       ob.tickCPU,
		tickChanges:   ob.tickChanges,
		drain:         end.Sub(ob.last),
	}, nil
}

// tickObserver forwards the run's events to the client fleet and stamps
// the wall time and the thread's CPU time at each new simulated source
// tick.
type tickObserver struct {
	fleet       *d3t.ClientFleet
	tick        d3t.Time
	last        time.Time
	lastCPU     time.Duration
	tickCPU     []float64
	tickChanges []int
	cal         *calibrator
}

// calEveryTicks is how often, in simulated source ticks, the observer
// calibrates: about every quarter second, so the calibrations follow the
// machine's drift through the run.
const calEveryTicks = 250

func (o *tickObserver) ObserveSource(now d3t.Time, item string, v float64) {
	o.fleet.ObserveSource(now, item, v)
	if now != o.tick {
		cpu := threadCPUNow()
		if o.tick >= 0 {
			o.tickCPU = append(o.tickCPU, us(cpu-o.lastCPU))
		}
		if len(o.tickChanges)%calEveryTicks == 0 {
			// Between two ticks, outside both ticks' times.
			o.cal.calibrate()
			cpu = threadCPUNow()
		}
		o.tickChanges = append(o.tickChanges, 0)
		o.tick, o.last, o.lastCPU = now, time.Now(), cpu
	}
	o.tickChanges[len(o.tickChanges)-1]++
}

func (o *tickObserver) ObserveDeliver(now d3t.Time, repo d3t.RepositoryID, item string, v float64) {
	o.fleet.ObserveDeliver(now, repo, item, v)
}

// simSensitivity is how much more the simulator's speed moves with the
// machine's than the reference's does: its rate is scaled by
// speed_factor to this power. Over five series of 5 to 20 runs on the
// 2-vCPU host the bounds were set on, the log-log slope of the
// simulator's thread-CPU rate against speed_factor was 0.83 to 1.99
// (median 1.73); 1.5 cut the worst series' spread from 0.194 to 0.126.
const simSensitivity = 1.5

// simSetups is the minimum number of set-ups per run, so setup_s is a
// median of several.
const simSetups = 5

// simClients runs the workload: set-ups and RunPush rounds alternate
// until the measurement time is spent (at least two rounds, so every
// run checks that a seed reproduces its results exactly), then spare
// set-ups until there are simSetups. A traced run makes exactly two
// rounds: the first untraced, the second under the CPU profile.
func simClients(r *run) error {
	cfg := simConfig()
	var (
		rounds []simOutcome
		spans  []map[string]float64
		spent  time.Duration
		spare  *simWorld
		peaks  []float64
	)
	cal, err := newCalibrator()
	if err != nil {
		return err
	}
	defer cal.close()
	for len(rounds) < 2 || (!r.traced && spent < r.seconds) {
		runtime.GC()
		rss := sampleRSS()
		w, err := buildSim(cfg, r.seed)
		if err != nil {
			rss.peak()
			return err
		}
		spans = append(spans, w.spans)
		traced := r.traced && len(rounds) > 0
		if traced {
			if err := startProfile(); err != nil {
				return err
			}
		}
		out, err := w.push(cal)
		peaks = append(peaks, rss.peak())
		if traced {
			if err := r.stopProfile(); err != nil {
				return err
			}
		}
		if err != nil {
			return err
		}
		rounds = append(rounds, out)
		spent += out.wall
	}
	for len(spans) < simSetups || spare == nil {
		runtime.GC()
		w, err := buildSim(cfg, r.seed)
		if err != nil {
			return err
		}
		spans = append(spans, w.spans)
		spare = w // not run, so the ledger replays over its overlay
	}
	setupMedians(r, spans)
	// Each round's peak less the calibration table, which is resident
	// throughout.
	r.set("peak_rss_mb", median(peaks)-cal.residentMiB)

	first := rounds[0]
	for i, o := range rounds[1:] {
		r.check(o.sameResult(first), "sim round %d differs from round 1 on the same seed: %+v vs %+v", i+2, o, first)
	}
	r.check(first.sourceTicks > 0 && first.messages > 0, "sim run disseminated nothing")
	r.attempted += first.sourceTicks * uint64(len(rounds))

	timed := rounds
	if r.traced {
		timed = rounds[:1]
	}
	var rates, ticks, runMs, drainMs []float64
	var wall time.Duration
	for _, o := range timed {
		rates = append(rates, o.chunkRates()...)
		ticks = append(ticks, o.tickCPU...)
		runMs = append(runMs, ms(o.wall))
		drainMs = append(drainMs, ms(o.drain))
		wall += o.wall
	}
	sort.Float64s(ticks)
	r.check(supported(len(ticks), 0.99), "only %d source ticks, too few for a p99", len(ticks))
	src := float64(first.sourceTicks)
	f := cal.factor(r)
	r.set("setup_s", r.metrics["setup_cpu_s"]/f)
	fs := math.Pow(f, simSensitivity)
	r.set("updates_per_s", median(rates)*fs)
	r.set("latency_p50_us", quantile(ticks, 0.50)/fs)
	r.set("latency_p99_us", quantile(ticks, 0.99)/fs)
	r.set("updates_per_thread_cpu_s", median(rates))
	r.set("latency_p50_us_unscaled", quantile(ticks, 0.50))
	r.set("updates_per_wall_s", src*float64(len(timed))/wall.Seconds())
	r.set("dissemination.run_ms", median(runMs))
	r.set("barrier.drain_ms", median(drainMs))
	r.note("sim rounds: %d; throughput samples: %d chunks of %d ticks; latency samples: %d ticks (thread CPU time per simulated source tick)",
		len(timed), len(rates), chunkTicks, len(ticks))
	if r.traced {
		// The traced round ran under the CPU profile.
		traced := rounds[1]
		tr := median(traced.chunkRates())
		r.set("trace.overhead_pct", 100*(median(rates)-tr)/median(rates))
		tt := sortedCopy(traced.tickCPU)
		r.set("source.publish_us.p50", quantile(tt, 0.50))
		r.set("source.publish_us.p99", quantile(tt, 0.99))
	}
	r.set("messages_per_update", float64(first.messages)/src)
	r.set("fidelity_loss_pct", first.lossPct)
	r.set("client_loss_pct", first.clientLossPct)
	r.set("failed_ops_ratio", 0)
	r.set("dissemination.checks_per_update", float64(first.checks)/src)
	r.set("serve.delivered_per_update", float64(first.delivered)/src)
	r.set("serve.pass_ratio", float64(first.delivered)/float64(first.delivered+first.filtered))
	r.set("serve.session_dropped", 0)
	r.set("serve.session_drop_ratio", 0)
	if r.traced {
		led := newLedger(spare.overlay, spare.initial, simBatches(spare.traces, ledgerUpdates), r.dir)
		if err := led.measure(r, median(rates), simPath); err != nil {
			return err
		}
	}
	return nil
}

// setupMedians reports, for every span the set-ups recorded, the median
// across set-ups.
func setupMedians(r *run, spans []map[string]float64) {
	byName := make(map[string][]float64)
	for _, s := range spans {
		for name, v := range s {
			byName[name] = append(byName[name], v)
		}
	}
	for name, vs := range byName {
		r.set(name, median(vs))
	}
	r.note("set-ups: %d", len(spans))
}

// simBatches turns the trace set into the source's per-tick batches of
// value changes, stopping once limit updates are collected.
func simBatches(traces []*d3t.Trace, limit int) [][]update {
	last := make(map[string]float64, len(traces))
	ticks := 0
	for _, tr := range traces {
		last[tr.Item] = tr.Ticks[0].Value
		ticks = max(ticks, tr.Len())
	}
	var out [][]update
	n := 0
	for i := 1; i < ticks && n < limit; i++ {
		var b []update
		for _, tr := range traces {
			if i < tr.Len() && tr.Ticks[i].Value != last[tr.Item] {
				last[tr.Item] = tr.Ticks[i].Value
				b = append(b, update{tr.Item, tr.Ticks[i].Value})
			}
		}
		if len(b) > 0 {
			out = append(out, b)
			n += len(b)
		}
	}
	return out
}
