// Package d3t is a reproduction of "Maintaining Coherency of Dynamic Data
// in Cooperating Repositories" (Shah, Ramamritham, Shenoy — VLDB 2002) as
// a reusable Go library.
//
// The paper's system disseminates rapidly changing data items (stock
// prices, sensor readings) from a source through an overlay of cooperating
// repositories — the dynamic data dissemination tree, d3t — such that each
// repository's copy stays within a per-item coherency tolerance c:
//
//	|source(t) - copy(t)| <= c    for all t
//
// The package exposes three layers:
//
//   - Experiments: RunExperiment executes a fully configured simulation
//     (network, overlay, dissemination, fidelity measurement); Figures
//     regenerates every table and figure of the paper's evaluation.
//   - Building blocks: traces (GenerateTraces), physical networks
//     (GenerateNetwork), overlay construction (NewLeLA and friends) and
//     dissemination protocols (NewDistributed, NewCentralized, RunPush,
//     RunPull, RunLease) for custom setups.
//   - Live runtimes: the live subpackage runs the same algorithms on
//     goroutines in real time, and netio serves them over TCP.
//   - Client serving: ClientFleet (and Config.Clients or
//     Config.VirtualSessions) attaches end-user sessions with their own
//     tolerances to repositories — load-aware placement, per-client
//     filtered fan-out, churn/migration, and client-observed fidelity;
//     live and netio serve sessions over channels and TCP subscriptions.
//     Sessions are compact per-shard array state rather than one object
//     each, so one process holds millions of them. Placement goes
//     through a shared nearest-k index with an optional consistent-hash
//     overflow ring, and Config.Scenario schedules flash crowds,
//     correlated regional failures and diurnal load waves over a
//     synthetic population.
//   - Sharded ingest: Config.Shards/Config.BatchTicks (and the
//     IngestPipeline building block) hash-partition independent items
//     across parallel workers and coalesce update bursts into batches —
//     the same partition drives the simulator, live's per-shard batch
//     channels, and netio's multi-update frames.
//   - Durability: Config.Durability (and the WAL building blocks) backs
//     every repository with a per-shard write-ahead log plus periodic
//     snapshots, group-committed on batch boundaries. A killed
//     repository recovers its exact pre-crash values and edge filter
//     state from disk instead of rejoining cold — the first
//     post-recovery push is suppressed or forwarded as if the crash
//     never happened. All three runtimes honor it (kill: fault specs,
//     live NewDurableCluster, netio NodeConfig.Durability).
//   - Derived-data queries: Config.Queries (and the Query building
//     blocks) subscribe clients to *derived* values — windowed
//     aggregates, joins, filters — with a tolerance cQ on the result;
//     tolerance allocation translates cQ into per-input tolerances the
//     Eq. 3+7 machinery enforces, so coherent inputs provably imply a
//     coherent result. All three runtimes serve query sessions
//     (ClientFleet.AttachQueries, live SubscribeQuery, netio
//     SubscribeQuery).
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package d3t

import (
	"d3t/internal/coherency"
	"d3t/internal/core"
	"d3t/internal/dissemination"
	"d3t/internal/ingest"
	"d3t/internal/netsim"
	"d3t/internal/node"
	"d3t/internal/place"
	"d3t/internal/query"
	"d3t/internal/repository"
	"d3t/internal/resilience"
	"d3t/internal/sim"
	"d3t/internal/trace"
	"d3t/internal/tree"
	"d3t/internal/vserve"
	"d3t/internal/wal"
)

// Experiment layer -----------------------------------------------------

type (
	// Config fully describes one simulation run.
	Config = core.Config
	// Outcome is the measured result of a run.
	Outcome = core.Outcome
	// Scale sizes a figure sweep (SmallScale or PaperScale).
	Scale = core.Scale
	// FigureResult is a regenerated table or figure.
	FigureResult = core.FigureResult
	// FigureFunc regenerates one table or figure.
	FigureFunc = core.FigureFunc
	// Series is one labelled curve in a FigureResult.
	Series = core.Series
)

// DefaultConfig returns the paper's base case at full scale.
func DefaultConfig() Config { return core.Default() }

// RunExperiment executes one end-to-end simulation.
func RunExperiment(cfg Config) (*Outcome, error) { return core.RunExperiment(cfg) }

// SmallScale is the fast sweep preset; PaperScale is the paper's.
func SmallScale() Scale { return core.SmallScale() }

// PaperScale reproduces the paper's evaluation scale (100 repositories,
// 700 network nodes, 100 traces of 10000 ticks).
func PaperScale() Scale { return core.PaperScale() }

// Figures returns the registry of reproducible tables and figures.
func Figures() map[string]FigureFunc { return core.Figures() }

// FigureIDs lists the registry keys in sorted order.
func FigureIDs() []string { return core.FigureIDs() }

// SweepRunner executes batches of configurations on a bounded worker
// pool, sharing cached networks and trace sets across sweep points.
// Results are index-ordered and independent of the worker count.
type SweepRunner = core.Runner

// SweepProgress is the per-point progress report of a SweepRunner.
type SweepProgress = core.Progress

// NewSweepRunner returns a runner bounded to the given worker count
// (<= 0 means GOMAXPROCS). Assign it to Scale.Runner to share caches
// across figures, or call RunAll directly with a batch of Configs.
func NewSweepRunner(workers int) *SweepRunner { return core.NewRunner(workers) }

// Building blocks -------------------------------------------------------

type (
	// Time is simulation time in microseconds.
	Time = sim.Time
	// Trace is one data item's update history.
	Trace = trace.Trace
	// Tick is a single trace observation.
	Tick = trace.Tick
	// TraceConfig parameterizes synthetic trace generation.
	TraceConfig = trace.GenConfig
	// Workload is a pluggable trace-set generator family.
	Workload = trace.Workload
	// WorkloadSpec sizes a workload generation request.
	WorkloadSpec = trace.WorkloadSpec
	// Network is the endpoint delay structure of a physical topology.
	Network = netsim.Network
	// NetworkConfig parameterizes random topology generation.
	NetworkConfig = netsim.Config
	// Repository is one overlay node.
	Repository = repository.Repository
	// RepositoryID identifies an overlay node (0 is the source).
	RepositoryID = repository.ID
	// Requirement is a coherency tolerance in value units.
	Requirement = coherency.Requirement
	// Client is an end user attached to a repository with per-item
	// tolerances (Section 1.2).
	Client = repository.Client
	// ClientWorkload parameterizes random client population generation.
	ClientWorkload = repository.ClientWorkload
	// Overlay is a constructed dissemination graph.
	Overlay = tree.Overlay
	// Builder constructs overlays.
	Builder = tree.Builder
	// LeLABuilder is the paper's Level-by-Level Algorithm with its
	// dynamic-membership operations (Insert, UpdateNeeds).
	LeLABuilder = tree.LeLA
	// Protocol is a push dissemination algorithm.
	Protocol = dissemination.Protocol
	// PushConfig is the delay model for push runs.
	PushConfig = dissemination.Config
	// PullConfig parameterizes pull-based runs.
	PullConfig = dissemination.PullConfig
	// LeaseConfig parameterizes lease-augmented push runs.
	LeaseConfig = dissemination.LeaseConfig
	// RunResult is the outcome of a protocol run over an overlay.
	RunResult = dissemination.Result
	// FidelityReport aggregates per-repository fidelity.
	FidelityReport = coherency.Report
)

// Time units re-exported for building schedules and delays.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Pull modes.
const (
	StaticTTR   = dissemination.StaticTTR
	AdaptiveTTR = dissemination.AdaptiveTTR
)

// SourceID is the overlay id of the data source.
const SourceID = repository.SourceID

// Milliseconds converts floating-point milliseconds to Time.
func Milliseconds(ms float64) Time { return sim.Milliseconds(ms) }

// GenerateTrace produces one synthetic trace.
func GenerateTrace(cfg TraceConfig) (*Trace, error) { return trace.Generate(cfg) }

// GenerateTraces produces n workload traces at the given tick count and
// interval (the paper's stock-price stand-ins).
func GenerateTraces(n, ticks int, interval Time, seed int64) []*Trace {
	return trace.GenerateSet(n, ticks, interval, seed)
}

// LookupWorkload resolves a registered workload family by name; the empty
// string selects "stocks".
func LookupWorkload(name string) (Workload, error) { return trace.LookupWorkload(name) }

// RegisterWorkload adds a custom workload family to the registry, making
// it selectable via Config.Workload and the cmd flags.
func RegisterWorkload(w Workload) { trace.RegisterWorkload(w) }

// WorkloadNames lists the registered workload families in sorted order.
func WorkloadNames() []string { return trace.WorkloadNames() }

// GenerateNetwork builds a random router topology with Pareto link delays.
func GenerateNetwork(cfg NetworkConfig) (*Network, error) { return netsim.Generate(cfg) }

// UniformNetwork builds a network where every endpoint pair is exactly
// delay apart.
func UniformNetwork(repositories int, delay Time) *Network {
	return netsim.Uniform(repositories, delay)
}

// NewRepository creates an overlay node with the given id and cooperation
// limit.
func NewRepository(id RepositoryID, coopLimit int) *Repository {
	return repository.New(id, coopLimit)
}

// NewLeLA returns the paper's Level-by-Level overlay builder. The
// concrete type also supports dynamic membership: Insert joins a new
// repository into a built overlay, UpdateNeeds reapplies the algorithm
// for changed coherency needs, and Overlay.Remove departs a leaf.
func NewLeLA(pPercent float64, seed int64) *LeLABuilder {
	return &tree.LeLA{PPercent: pPercent, Seed: seed}
}

// NewDistributed returns the repository-based dissemination algorithm
// (Eqs. 3 and 7).
func NewDistributed() Protocol { return dissemination.NewDistributed() }

// NewCentralized returns the source-based dissemination algorithm.
func NewCentralized() Protocol { return dissemination.NewCentralized() }

// RunPush pushes the traces through the overlay with the protocol.
func RunPush(o *Overlay, traces []*Trace, p Protocol, cfg PushConfig) (*RunResult, error) {
	return dissemination.Run(o, traces, p, cfg)
}

// RunPull refreshes the overlay by polling (static or adaptive TTR).
func RunPull(o *Overlay, traces []*Trace, cfg PullConfig) (*RunResult, error) {
	return dissemination.RunPull(o, traces, cfg)
}

// RunLease runs lease-augmented push.
func RunLease(o *Overlay, traces []*Trace, cfg LeaseConfig) (*RunResult, error) {
	return dissemination.RunLease(o, traces, cfg)
}

// ControlledCoopDegree computes the Eq. 2 "optimal" degree of cooperation.
func ControlledCoopDegree(avgComm, avgComp Time, resources, k int) int {
	return tree.ControlledCoopDegree(avgComm, avgComp, resources, k)
}

// Node core --------------------------------------------------------------

type (
	// NodeCore is the transport-agnostic repository state machine every
	// runtime shares: per-update receive/filter/forward decisions
	// (Eqs. 3 and 7) over precomputed dependent plans, last-pushed-value
	// tracking, session admission/redirect/resync, and failover resync.
	// The simulator, the goroutine cluster and the TCP cluster are thin
	// transports around it; custom runtimes can be too.
	NodeCore = node.Core
	// NodeTransport is the backend half of a node: the core decides,
	// the transport moves bytes and time.
	NodeTransport = node.Transport
	// NodeOptions configures a NodeCore (source semantics, session cap,
	// naive Eq.3-only ablation, serve-only mode).
	NodeOptions = node.Options
	// NodeSession is one client's subscription state as its serving
	// node core tracks it; it survives migration between cores.
	NodeSession = node.Session
	// NodeDecisions tallies a core's forward/suppress filter decisions
	// (the cross-backend parity instrumentation).
	NodeDecisions = node.Decisions
)

// NewNodeCore builds a repository core around the repository's wiring;
// peers resolves dependent ids to their repositories.
func NewNodeCore(self *Repository, peers func(RepositoryID) *Repository, opts NodeOptions) *NodeCore {
	return node.New(self, peers, opts)
}

// NewNodeSession builds a detached client session for admission into a
// NodeCore.
func NewNodeSession(name string, wants map[string]Requirement) *NodeSession {
	return node.NewSession(name, wants)
}

// Ingest layer -----------------------------------------------------------

type (
	// IngestConfig parameterizes the sharded batched ingest pipeline
	// (Config.Shards / Config.BatchTicks select it for experiments).
	IngestConfig = ingest.Config
	// IngestStats reports an ingest run's throughput and coalescing work
	// (Outcome.Ingest carries one for sharded/batched runs).
	IngestStats = ingest.Stats
	// IngestPipeline is the transport-free sharded ingest engine: items
	// hash-partition across shard workers, each draining its batches'
	// fan-out plans through its own set of repository cores at full
	// speed.
	IngestPipeline = ingest.Pipeline
)

// NewIngestPipeline builds and starts an ingest pipeline over a built
// overlay, seeded with the items' initial values.
func NewIngestPipeline(o *Overlay, initial map[string]float64, cfg IngestConfig) *IngestPipeline {
	return ingest.NewPipeline(o, initial, cfg)
}

// ShardOf maps an item to its ingest shard — the one hash every sharded
// layer (pipeline workers, the sharded simulator, live's per-shard
// channels) shares.
func ShardOf(item string, shards int) int { return ingest.ShardOf(item, shards) }

// CoalesceTraces folds each trace's updates through batch windows of
// batchTicks ticks (only the newest value per window survives; horizons
// are preserved), returning the coalesced set and the folded count.
func CoalesceTraces(traces []*Trace, batchTicks int) ([]*Trace, uint64) {
	return ingest.CoalesceTraces(traces, batchTicks)
}

// Resilience layer ------------------------------------------------------

type (
	// FaultPlan is a deterministic failure schedule (crashes, rejoins,
	// churn) injected into a resilient run.
	FaultPlan = resilience.Plan
	// Fault is one scheduled failure of a FaultPlan.
	Fault = resilience.Fault
	// ResilienceConfig parameterizes heartbeats, detection and repair.
	ResilienceConfig = resilience.Config
	// ResilienceStats counts crashes, detections, repairs and recovery
	// latency.
	ResilienceStats = resilience.Stats
	// ResilienceResult extends a push run result with resilience stats.
	ResilienceResult = resilience.Result
)

// ParseFaultPlan builds a failure schedule from a spec string such as
// "crash:max@50", "crash:3@50+100" or "churn:2:30", sized to a run of the
// given repositories/ticks. See resilience.ParsePlan for the grammar; the
// same spec is accepted by Config.Faults and the -faults command flags.
func ParseFaultPlan(spec string, repos, ticks int, interval Time, seed int64) (*FaultPlan, error) {
	return resilience.ParsePlan(spec, repos, ticks, interval, seed)
}

// RunResilient pushes the traces through the overlay under a fault plan:
// heartbeats between neighbors, silence-window failure detection, and
// backup-parent repair via the builder's re-homing machinery
// (LeLABuilder.BackupParents, Rehome, RemoveRepair). A nil plan runs
// fault-free.
func RunResilient(o *Overlay, lela *LeLABuilder, traces []*Trace, p Protocol,
	cfg ResilienceConfig, plan *FaultPlan) (*ResilienceResult, error) {
	return resilience.Run(o, lela, traces, p, cfg, plan)
}

// Durability layer -------------------------------------------------------

type (
	// DurabilityConfig selects per-repository durable state for
	// experiments (Config.Durability): each repository's values and edge
	// filter state ride a write-ahead log with periodic snapshots under
	// Dir, so kill: faults recover from disk instead of rejoining cold.
	DurabilityConfig = core.DurabilityConfig
	// WALOptions configures one write-ahead log directory; the live and
	// netio runtimes take one via Options.Durability and
	// NodeConfig.Durability.
	WALOptions = wal.Options
	// WALRecovered is what opening a log directory found on disk:
	// snapshot state, replayable batches, and any truncated torn tail.
	WALRecovered = wal.Recovered
	// WALLog is an open write-ahead log (group commit per batch).
	WALLog = wal.Log
)

// Fsync policies for WALOptions.Fsync.
const (
	WALFsyncBatch  = wal.PolicyBatch
	WALFsyncAlways = wal.PolicyAlways
	WALFsyncNever  = wal.PolicyNever
)

// OpenWAL recovers a log directory's state (truncating any torn tail)
// and opens the log for appending — the building block custom runtimes
// use directly.
func OpenWAL(dir string, opts WALOptions) (*WALLog, *WALRecovered, error) {
	return wal.Open(dir, opts)
}

// DeriveNeeds computes each repository's data and coherency needs from its
// client population: the union of its clients' items, each at the most
// stringent tolerance any client demands (Section 1.2).
func DeriveNeeds(repos []*Repository, clients []*Client) error {
	return repository.DeriveNeeds(repos, clients)
}

// GenerateClients builds a random client population for a workload.
func GenerateClients(w ClientWorkload) ([]*Client, error) {
	return repository.GenerateClients(w)
}

// Serving layer ---------------------------------------------------------

type (
	// ClientFleet is a population of client sessions served by the
	// repositories of one run: load-aware placement under a session cap,
	// per-client coherency-filtered fan-out (Eqs. 3+7 at the leaf), churn
	// and crash-driven migration, client-observed fidelity, and
	// derived-data query sessions. Sessions are compact per-shard array
	// state, so AttachAll admits a concrete Client slice and Populate a
	// synthetic population of millions. It implements the run observers,
	// so assign it to PushConfig.Observer (or ResilienceConfig.Observer)
	// to serve a simulation's clients.
	ClientFleet = vserve.Fleet
	// FleetOptions parameterizes a fleet (session cap, churn plan,
	// scenario, tick interval, obs, query catalogue, shard count,
	// overflow ring, parallel delivery workers).
	FleetOptions = vserve.Options
	// ClientStats is the serving layer's outcome: client-observed
	// fidelity, redirect/migration counters, fan-out work, shard count
	// and resident bytes per session (Outcome.Clients carries one).
	ClientStats = vserve.Stats
	// SyntheticPopulation parameterizes ClientFleet.Populate: the
	// GenerateClients distribution without per-client objects.
	SyntheticPopulation = vserve.Synthetic
	// RunObserver receives a simulation's source ticks and deliveries
	// (PushConfig.Observer); ResilienceObserver additionally sees crashes
	// and rejoins (ResilienceConfig.Observer).
	RunObserver = dissemination.Observer
	// ResilienceObserver extends RunObserver with fault events.
	ResilienceObserver = resilience.Observer
)

// NewClientFleet builds an empty fleet over the repository population
// (ids 1..n, matching the network's endpoints). Attach the clients,
// derive needs and build the overlay, seed the initial values, run with
// the fleet as the observer, then Finalize.
func NewClientFleet(net *Network, repos []*Repository, opts FleetOptions) (*ClientFleet, error) {
	return vserve.NewFleet(net, repos, opts)
}

// ParseSessionPlan builds a session churn plan (arrivals/departures over
// the session population) from a spec string such as "churn:5:40" or
// "crash:3@100+50", sized to `sessions` clients over `ticks` trace
// ticks. The same grammar as ParseFaultPlan, applied to sessions; the
// result feeds FleetOptions.Plan and Config.SessionChurn accepts the
// same specs.
func ParseSessionPlan(spec string, sessions, ticks int, interval Time, seed int64) (*FaultPlan, error) {
	return vserve.ParseSessionPlan(spec, sessions, ticks, interval, seed)
}

// Scenarios and placement -----------------------------------------------

type (
	// ScenarioSpec is a parsed scenario: flash crowds, correlated
	// regional failures, diurnal load waves (Config.Scenario grammar).
	ScenarioSpec = trace.ScenarioSpec
	// ScenarioPlan is a scenario scheduled over a concrete population:
	// per-session arrival/departure events plus repository faults.
	ScenarioPlan = trace.ScenarioPlan
	// ScenarioEvent is one session arrival or departure of a plan.
	ScenarioEvent = trace.ScenarioEvent
	// ScenarioFault is one scenario-driven repository failure.
	ScenarioFault = trace.ScenarioFault
	// PlacementIndex is the shared sharded nearest-k session placement
	// index: delay-bucketed candidate orders per home endpoint with an
	// optional consistent-hash overflow ring, making admission O(k)
	// instead of a linear scan.
	PlacementIndex = place.Index
	// PlacementOptions parameterizes the index's overflow ring.
	PlacementOptions = place.Options
	// PlacementState is the live cluster view a placement consults.
	PlacementState = place.State
)

// ParseScenario parses a scenario spec such as
// "flash:at=0.3,frac=0.5,burst=0.2", "regional:at=0.4,frac=0.25,rejoin=0.7"
// or "diurnal:waves=2,low=0.3". Empty and "none" return nil. The same
// grammar feeds Config.Scenario and the -scenario command flags.
func ParseScenario(spec string) (*ScenarioSpec, error) { return trace.ParseScenario(spec) }

// BuildScenario schedules a parsed scenario over a concrete population:
// deterministic per-session arrival/departure events (Pareto bursts,
// cosine waves) and correlated repository faults.
func BuildScenario(spec *ScenarioSpec, sessions, repos, ticks int, seed int64) (*ScenarioPlan, error) {
	return trace.BuildScenario(spec, sessions, repos, ticks, seed)
}

// NewPlacementIndex builds a placement index over the network's first
// `repos` endpoints.
func NewPlacementIndex(net *Network, repos int, opts PlacementOptions) *PlacementIndex {
	return place.New(net, repos, opts)
}

// PlacementKey hashes a session name to its stable placement key (FNV-1a).
func PlacementKey(name string) uint32 { return place.Key(name) }

// Query layer -----------------------------------------------------------

type (
	// Query is one continuous derived-data query: an operator (windowed
	// sum/avg/min/max aggregate, diff/ratio join, optional filter
	// predicate) over input items, with a client tolerance cQ on the
	// result. Query.Wants() is the tolerance allocation: the per-input
	// subscription that makes coherent inputs imply a coherent result.
	Query = query.Query
	// QueryKind is the query's combining operator.
	QueryKind = query.Kind
	// QueryPred is the optional Filter(pred) stage gating publication.
	QueryPred = query.Pred
	// QueryPlacement selects repository-side (default) or client-side
	// evaluation.
	QueryPlacement = query.Placement
	// QueryEval is a query's incremental evaluator: current input copies,
	// the window ring of per-tick aggregates, and eval/recompute counters.
	QueryEval = query.Eval
	// QueryServed is one query session served by a ClientFleet
	// (ClientFleet.AttachQueries / QuerySession / QuerySessions).
	QueryServed = vserve.QuerySession
	// QueryOutcome is one query's measured result (fidelity, input floor,
	// message tallies); QueryServingStats aggregates the catalogue
	// (Outcome.Queries carries one when Config.Queries is set).
	QueryOutcome      = vserve.QueryOutcome
	QueryServingStats = vserve.QueryStats
)

// Query operators.
const (
	QuerySum   = query.Sum
	QueryAvg   = query.Avg
	QueryMin   = query.Min
	QueryMax   = query.Max
	QueryDiff  = query.Diff
	QueryRatio = query.Ratio
)

// Query placements.
const (
	QueryPlaceRepo   = query.PlaceRepo
	QueryPlaceClient = query.PlaceClient
)

// ParseQuery builds a query from its spec string, e.g.
// "avg(w=5;ITEM000,ITEM001,ITEM002)@0.05" or
// "diff(ITEM000,ITEM001)>0@0.1!client". The returned query has no Name;
// callers assign one. The same grammar feeds Config.Queries and the
// -query command flags.
func ParseQuery(spec string) (Query, error) { return query.Parse(spec) }

// ParseQueryList parses a list of specs and names them q0, q1, ...
func ParseQueryList(specs []string) ([]Query, error) { return query.ParseList(specs) }

// NewQueryEval builds the incremental evaluator for a validated query —
// the building block for custom runtimes; the live and netio runtimes
// embed one per query session (SubscribeQuery).
func NewQueryEval(q Query) *QueryEval { return query.NewEval(q) }
