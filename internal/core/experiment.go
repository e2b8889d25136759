package core

import (
	"fmt"
	"sort"

	"d3t/internal/dissemination"
	"d3t/internal/ingest"
	"d3t/internal/netsim"
	"d3t/internal/obs"
	"d3t/internal/repository"
	"d3t/internal/resilience"
	"d3t/internal/sim"
	"d3t/internal/trace"
	"d3t/internal/tree"
	"d3t/internal/vserve"
)

// Outcome is the measured result of one simulation run.
type Outcome struct {
	// Config is the configuration that produced the outcome.
	Config Config
	// Fidelity is the system fidelity in [0,1]; LossPercent is
	// 100*(1-Fidelity), the paper's y-axis.
	Fidelity    float64
	LossPercent float64
	// CoopDegreeUsed is the effective per-node dependent cap (after
	// controlled cooperation, if it was selected).
	CoopDegreeUsed int
	// AvgCommDelay is the measured mean endpoint-to-endpoint delay.
	AvgCommDelay sim.Time
	// Tree summarizes the constructed overlay's shape.
	Tree tree.Metrics
	// Stats carries message/check counters from the dissemination run.
	Stats dissemination.Stats
	// SourceUtilization is the busy fraction of the source's processor.
	SourceUtilization float64
	// Resilience carries fault-injection and repair counters; nil when the
	// run had Faults disabled.
	Resilience *resilience.Stats
	// Clients carries the serving layer's outcome — client-observed
	// fidelity, redirect/migration counters, per-session fan-out work,
	// shard count and resident bytes per session; nil when the run had
	// neither Clients nor VirtualSessions set.
	Clients *vserve.Stats
	// Queries carries the derived-data query layer's outcome —
	// result-level fidelity against the allocation's union-bound floor,
	// eval/recompute counters and per-placement message costs; nil when
	// the run had Queries disabled.
	Queries *vserve.QueryStats
	// Ingest carries the sharded/batched ingest pipeline's throughput and
	// coalescing stats; nil when the run used the plain sequential path
	// (Shards <= 1 and BatchTicks <= 1, or a run the ingest layer does
	// not apply to).
	Ingest *ingest.Stats
	// Obs is the observability tree's snapshot at the run's horizon; nil
	// when the run had Config.Obs unset.
	Obs *obs.TreeSnapshot
}

// String renders the outcome as a one-line summary.
func (o *Outcome) String() string {
	return fmt.Sprintf("loss=%.2f%% coop=%d msgs=%d srcChecks=%d srcUtil=%.2f %v",
		o.LossPercent, o.CoopDegreeUsed, o.Stats.Messages, o.Stats.SourceChecks,
		o.SourceUtilization, o.Tree)
}

// RunExperiment executes one full simulation: generate workload and
// network, derive the cooperation degree, construct the overlay, and push
// the traces through it.
func RunExperiment(cfg Config) (*Outcome, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	net, err := cfg.network()
	if err != nil {
		return nil, err
	}
	traces, err := cfg.traces()
	if err != nil {
		return nil, err
	}
	return runExperimentWith(cfg, net, traces)
}

// runExperimentWith runs the simulation over pre-built substrates. The
// network and traces are only read, so sweep runners pass cached copies
// shared across concurrent calls; everything mutable (repositories, the
// overlay, trackers) is created here, per run.
func runExperimentWith(cfg Config, net *netsim.Network, traces []*trace.Trace) (*Outcome, error) {
	// With a session population configured, repository needs come from
	// the placed sessions (Section 1.2) instead of the subscription
	// workload: each session attaches to the nearest repository under the
	// session cap, and the repository's requirement for an item becomes
	// the most stringent across its sessions.
	var repos []*repository.Repository
	var fleet *vserve.Fleet
	var scenFaults *resilience.Plan
	if cfg.VirtualEnabled() || cfg.ClientsEnabled() || cfg.QueriesEnabled() {
		repos = cfg.bareRepositories()
		catalogue := itemCatalogue(traces)
		plan, err := cfg.sessionPlan()
		if err != nil {
			return nil, err
		}
		interval := cfg.TickInterval
		if interval <= 0 {
			interval = sim.Second
		}
		opts := vserve.Options{Cap: cfg.SessionCap, Plan: plan, Interval: interval, Obs: cfg.Obs}
		if cfg.VirtualEnabled() {
			fleet, scenFaults, err = cfg.virtualFleet(net, repos, catalogue, opts)
		} else {
			fleet, err = cfg.clientFleet(net, repos, catalogue, opts)
		}
		if err != nil {
			return nil, err
		}
	} else {
		repos = cfg.repositories(traces)
	}

	avgComm := net.AvgDelay()
	coop := cfg.CoopDegree
	if coop == 0 {
		comp := cfg.compDelay()
		if comp < 0 {
			comp = 0
		}
		coop = tree.ControlledCoopDegree(avgComm, comp, cfg.Repositories, cfg.CoopK)
	}
	for _, r := range repos {
		r.CoopLimit = coop
	}

	builder, err := cfg.builder()
	if err != nil {
		return nil, err
	}
	overlay, err := builder.Build(net, repos, coop)
	if err != nil {
		return nil, err
	}

	protocol, err := cfg.protocol()
	if err != nil {
		return nil, err
	}
	pushCfg := dissemination.Config{
		CompDelay: cfg.compDelay(),
		Queueing:  cfg.Queueing,
		Obs:       cfg.Obs,
	}
	if fleet != nil {
		// The serving layer is fed by the initial values and the run's
		// observable events; the overlay is built, so serving sets are
		// final and admission checks see them.
		initial := make(map[string]float64, len(traces))
		for _, tr := range traces {
			if tr.Len() > 0 {
				initial[tr.Item] = tr.Ticks[0].Value
			}
		}
		fleet.Seed(initial)
		pushCfg.Observer = fleet
	}
	var res *dissemination.Result
	var resStats *resilience.Stats
	var ingestStats *ingest.Stats
	if cfg.IngestEnabled() {
		// The sharded/batched ingest runner: coalesce the trace set,
		// partition the items across parallel sub-simulations, merge. The
		// plain path below stays untouched so Shards <= 1 && BatchTicks
		// <= 1 remains byte-identical to it.
		res, ingestStats, _, err = ingest.RunSim(overlay, traces, func() dissemination.Protocol {
			p, perr := cfg.protocol()
			if perr != nil {
				panic(perr) // cfg.Validate() vetted the name above
			}
			return p
		}, pushCfg, cfg.ingestConfig())
		if err != nil {
			return nil, err
		}
	} else if cfg.FaultsEnabled() || !scenFaults.Empty() || cfg.Durability.Enabled() {
		// Route through the resilient runner: same fidelity machinery,
		// plus fault injection, detection and backup-parent repair.
		// Scenario repository faults (regional failures) fold into the
		// configured fault plan.
		plan, err := cfg.faultPlan()
		if err != nil {
			return nil, err
		}
		if !scenFaults.Empty() {
			if plan.Empty() {
				plan = scenFaults
			} else {
				merged := &resilience.Plan{Spec: plan.Spec + "+" + scenFaults.Spec}
				merged.Faults = append(append(merged.Faults, plan.Faults...), scenFaults.Faults...)
				sort.SliceStable(merged.Faults, func(i, j int) bool {
					return merged.Faults[i].At < merged.Faults[j].At
				})
				plan = merged
			}
		}
		lela, _ := builder.(*tree.LeLA) // non-LeLA builders repair with defaults
		resCfg := resilience.Config{
			Push:       pushCfg,
			DetectK:    cfg.DetectTicks,
			Durability: cfg.Durability.walOptions(),
		}
		if fleet != nil {
			resCfg.Observer = fleet
		}
		rr, err := resilience.Run(overlay, lela, traces, protocol, resCfg, plan)
		if err != nil {
			return nil, err
		}
		res, resStats = rr.Result, &rr.Resilience
	} else {
		res, err = dissemination.Run(overlay, traces, protocol, pushCfg)
		if err != nil {
			return nil, err
		}
	}

	var clientStats *vserve.Stats
	var queryStats *vserve.QueryStats
	if fleet != nil {
		st := fleet.Finalize(res.Horizon)
		if cfg.ClientsEnabled() || cfg.VirtualEnabled() {
			clientStats = &st
		}
		if cfg.QueriesEnabled() {
			qst := fleet.FinalizeQueries(res.Horizon)
			queryStats = &qst
		}
	}

	var obsSnap *obs.TreeSnapshot
	if cfg.Obs != nil {
		s := cfg.Obs.Snapshot(int64(res.Horizon))
		obsSnap = &s
	}

	return &Outcome{
		Config:            cfg,
		Fidelity:          res.Report.SystemFidelity(),
		LossPercent:       res.Report.LossPercent(),
		CoopDegreeUsed:    coop,
		AvgCommDelay:      avgComm,
		Tree:              overlay.ComputeMetrics(),
		Stats:             res.Stats,
		SourceUtilization: res.SourceUtilization,
		Resilience:        resStats,
		Clients:           clientStats,
		Queries:           queryStats,
		Ingest:            ingestStats,
		Obs:               obsSnap,
	}, nil
}

// clientFleet attaches the concrete client population and the query
// catalogue, then derives repository needs from where they landed. The
// placement keeps the ring off: overflow walks strictly nearest-first.
func (cfg Config) clientFleet(net *netsim.Network, repos []*repository.Repository, catalogue []string, opts vserve.Options) (*vserve.Fleet, error) {
	var clients []*repository.Client
	if cfg.ClientsEnabled() {
		var err error
		clients, err = cfg.clients(catalogue)
		if err != nil {
			return nil, err
		}
	}
	queries, err := cfg.queries()
	if err != nil {
		return nil, err
	}
	known := make(map[string]bool, len(catalogue))
	for _, x := range catalogue {
		known[x] = true
	}
	for _, q := range queries {
		for _, x := range q.Items {
			if !known[x] {
				return nil, fmt.Errorf("core: query %q watches unknown item %q", q.Name, x)
			}
		}
	}
	opts.Queries = queries
	fleet, err := vserve.NewFleet(net, repos, opts)
	if err != nil {
		return nil, err
	}
	if err := fleet.AttachAll(clients); err != nil {
		return nil, err
	}
	// Query sessions fold into need derivation as synthetic clients: the
	// overlay then provably serves every query input at least as
	// stringently as the tolerance allocation demands.
	qclients, err := fleet.AttachQueries()
	if err != nil {
		return nil, err
	}
	if err := repository.DeriveNeeds(repos, append(clients, qclients...)); err != nil {
		return nil, err
	}
	return fleet, nil
}

// virtualFleet populates the synthetic session population (with its
// scenario) and derives repository needs from it. It returns the
// scenario's repository faults as a plan for the resilient runner (nil
// without any).
func (cfg Config) virtualFleet(net *netsim.Network, repos []*repository.Repository, catalogue []string, opts vserve.Options) (*vserve.Fleet, *resilience.Plan, error) {
	scen, err := cfg.scenarioPlan()
	if err != nil {
		return nil, nil, err
	}
	opts.Scenario = scen
	// Eight shards, the layout the scale figures' bytes/session column
	// reports.
	opts.Shards = 8
	if cfg.SessionCap > 0 {
		// Under a cap, overflow placement hashes onto the consistent
		// ring instead of walking ever-longer nearest-first prefixes.
		opts.RingSlots = 16
	}
	fleet, err := vserve.NewFleet(net, repos, opts)
	if err != nil {
		return nil, nil, err
	}
	if err := fleet.Populate(vserve.Synthetic{
		Sessions:       cfg.VirtualSessions,
		Items:          catalogue,
		ItemsPerClient: cfg.ItemsPerClient,
		StringentFrac:  cfg.StringentFrac,
		Seed:           cfg.Seed + 13,
	}); err != nil {
		return nil, nil, err
	}
	fleet.DeriveNeeds()
	if scen == nil || len(scen.Faults) == 0 {
		return fleet, nil, nil
	}
	p := &resilience.Plan{Spec: scen.Spec}
	for _, ft := range scen.Faults {
		rf := resilience.Fault{Node: repository.ID(ft.Repo), At: sim.Time(ft.Tick) * opts.Interval}
		if ft.RejoinTick >= 0 {
			rf.RejoinAt = sim.Time(ft.RejoinTick) * opts.Interval
		}
		p.Faults = append(p.Faults, rf)
	}
	return fleet, p, nil
}
