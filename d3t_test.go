package d3t

import (
	"testing"
)

// TestFacadeEndToEnd exercises the public API the way a downstream user
// would: generate a workload, build an overlay, run both exact protocols
// under ideal conditions, and check the guarantee.
func TestFacadeEndToEnd(t *testing.T) {
	const repos = 10
	net := UniformNetwork(repos, 0)
	traces := GenerateTraces(8, 200, Second, 42)

	members := make([]*Repository, repos)
	for i := range members {
		members[i] = NewRepository(RepositoryID(i+1), 3)
		for j, tr := range traces {
			if (i+j)%2 == 0 {
				members[i].Needs[tr.Item] = 0.05
				members[i].Serving[tr.Item] = 0.05
			}
		}
	}
	overlay, err := NewLeLA(5, 1).Build(net, members, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Protocol{NewDistributed(), NewCentralized()} {
		res, err := RunPush(overlay, traces, p, PushConfig{CompDelay: -1})
		if err != nil {
			t.Fatal(err)
		}
		if f := res.Report.SystemFidelity(); f != 1 {
			t.Errorf("%s fidelity %v under ideal conditions", p.Name(), f)
		}
	}
}

func TestFacadeExperiment(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Repositories, cfg.Routers = 10, 30
	cfg.Items, cfg.Ticks = 8, 200
	out, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Fidelity <= 0 || out.Fidelity > 1 {
		t.Errorf("fidelity %v out of range", out.Fidelity)
	}
}

func TestFacadeScalesAndFigures(t *testing.T) {
	if got := len(FigureIDs()); got < 15 {
		t.Errorf("only %d figures registered", got)
	}
	if s := SmallScale(); s.Repositories >= PaperScale().Repositories {
		t.Error("small scale not smaller than paper scale")
	}
}

func TestFacadeCoopDegree(t *testing.T) {
	if got := ControlledCoopDegree(Milliseconds(25), Milliseconds(12.5), 100, 30); got != 6 {
		t.Errorf("ControlledCoopDegree = %d, want 6", got)
	}
}

func TestFacadeClientLayer(t *testing.T) {
	// End-to-end through the public API: clients drive repository needs,
	// the overlay is built from the derived needs, dissemination runs.
	traces := GenerateTraces(6, 150, Second, 5)
	items := make([]string, len(traces))
	for i, tr := range traces {
		items[i] = tr.Item
	}
	repos := make([]*Repository, 5)
	ids := make([]RepositoryID, 5)
	for i := range repos {
		repos[i] = NewRepository(RepositoryID(i+1), 3)
		ids[i] = RepositoryID(i + 1)
	}
	clients, err := GenerateClients(ClientWorkload{
		Clients: 30, Repos: ids, Items: items, StringentFrac: 0.5, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := DeriveNeeds(repos, clients); err != nil {
		t.Fatal(err)
	}
	overlay, err := NewLeLA(5, 7).Build(UniformNetwork(5, 0), repos, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPush(overlay, traces, NewDistributed(), PushConfig{CompDelay: -1})
	if err != nil {
		t.Fatal(err)
	}
	if f := res.Report.SystemFidelity(); f != 1 {
		t.Errorf("client-derived overlay fidelity %v under ideal conditions, want 1", f)
	}
}

func TestFacadeDynamicMembership(t *testing.T) {
	net := UniformNetwork(6, 0) // capacity 6, join 4 later
	members := make([]*Repository, 4)
	for i := range members {
		members[i] = NewRepository(RepositoryID(i+1), 2)
		members[i].Needs["A"], members[i].Serving["A"] = 0.1, 0.1
	}
	lela := NewLeLA(5, 3)
	overlay, err := lela.Build(net, members, 2)
	if err != nil {
		t.Fatal(err)
	}
	joiner := NewRepository(5, 2)
	joiner.Needs["A"], joiner.Serving["A"] = 0.05, 0.05
	if err := lela.Insert(overlay, joiner); err != nil {
		t.Fatal(err)
	}
	if err := lela.UpdateNeeds(overlay, 2, map[string]Requirement{"A": 0.01}); err != nil {
		t.Fatal(err)
	}
	if err := overlay.Validate(); err != nil {
		t.Fatal(err)
	}
	// The joiner is a leaf: it may depart.
	if err := overlay.Remove(5); err != nil {
		t.Fatal(err)
	}
}

func TestFacadePull(t *testing.T) {
	net := UniformNetwork(4, 0)
	traces := GenerateTraces(4, 100, Second, 7)
	members := make([]*Repository, 4)
	for i := range members {
		members[i] = NewRepository(RepositoryID(i+1), 2)
		members[i].Needs[traces[0].Item] = 0.1
		members[i].Serving[traces[0].Item] = 0.1
	}
	overlay, err := NewLeLA(5, 2).Build(net, members, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPull(overlay, traces[:1], PullConfig{Mode: StaticTTR, TTR: 5 * Second, CompDelay: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Messages == 0 {
		t.Error("pull run sent no messages")
	}
	lease, err := RunLease(overlay, traces[:1], LeaseConfig{Duration: 20 * Second})
	if err != nil {
		t.Fatal(err)
	}
	if lease.Protocol != "lease-push" {
		t.Errorf("lease protocol %q", lease.Protocol)
	}
}

// rampWorkload is a custom workload family registered through the public
// API: every item ramps linearly, so any delivery gap shows up as
// fidelity loss deterministically.
type rampWorkload struct{}

func (rampWorkload) Name() string     { return "test-ramp" }
func (rampWorkload) Describe() string { return "linear ramps (root-package test fixture)" }
func (rampWorkload) Generate(spec WorkloadSpec) ([]*Trace, error) {
	interval := spec.Interval
	if interval <= 0 {
		interval = Second
	}
	traces := make([]*Trace, spec.Items)
	for i := range traces {
		tr := &Trace{Item: "RAMP" + string(rune('A'+i%26))}
		for k := 0; k < spec.Ticks; k++ {
			tr.Ticks = append(tr.Ticks, Tick{
				At:    Time(k) * interval,
				Value: 100 + float64(i) + float64(k)*0.05,
			})
		}
		traces[i] = tr
	}
	return traces, nil
}

// TestFacadeResilienceSweep exercises the re-exported surface end to end:
// a custom workload registered via RegisterWorkload, fault-plan configs
// built from the public Config, and a batch run through NewSweepRunner —
// so any re-export drift in these entry points fails tier-1.
func TestFacadeResilienceSweep(t *testing.T) {
	RegisterWorkload(rampWorkload{})
	names := WorkloadNames()
	found := false
	for _, n := range names {
		if n == "test-ramp" {
			found = true
		}
	}
	if !found {
		t.Fatalf("registered workload missing from %v", names)
	}

	base := DefaultConfig()
	base.Repositories, base.Routers = 12, 36
	base.Items, base.Ticks = 6, 200
	base.Workload = "test-ramp"

	faulty := base
	faulty.Faults = "crash:max@30"

	runner := NewSweepRunner(2)
	outs, err := runner.RunAll([]Config{base, faulty})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Resilience != nil {
		t.Error("fault-free sweep point carries resilience stats")
	}
	r := outs[1].Resilience
	if r == nil {
		t.Fatal("faulty sweep point has no resilience stats")
	}
	if r.Crashes != 1 {
		t.Errorf("crashes = %d, want 1", r.Crashes)
	}
	for i, out := range outs {
		if out.Fidelity <= 0 || out.Fidelity > 1 {
			t.Errorf("point %d fidelity %v out of range", i, out.Fidelity)
		}
	}
}

// TestFacadeClientServing exercises the serving layer end to end through
// the public API: clients attach as sessions with their own tolerances,
// drive repository needs, ride the run as its observer, and report
// filtered delivery plus client-observed fidelity.
func TestFacadeClientServing(t *testing.T) {
	const repos = 6
	net := UniformNetwork(repos, 0)
	traces := GenerateTraces(5, 200, Second, 21)
	items := make([]string, len(traces))
	for i, tr := range traces {
		items[i] = tr.Item
	}
	members := make([]*Repository, repos)
	ids := make([]RepositoryID, repos)
	for i := range members {
		members[i] = NewRepository(RepositoryID(i+1), 3)
		ids[i] = RepositoryID(i + 1)
	}
	clients, err := GenerateClients(ClientWorkload{
		Clients: 24, Repos: ids, Items: items, StringentFrac: 0.5, Seed: 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ParseSessionPlan("churn:10:20", len(clients), 200, Second, 23)
	if err != nil {
		t.Fatal(err)
	}
	// No session cap: with one, a re-arriving session can find its home
	// repository full and legitimately land somewhere that serves it less
	// stringently — a real fidelity cost the capped tests accept. Uncapped
	// and fault-free, the serving layer must be lossless.
	fleet, err := NewClientFleet(net, members, FleetOptions{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	// Attach before deriving needs: placement decides which repository
	// each client's tolerance lands on.
	if err := fleet.AttachAll(clients); err != nil {
		t.Fatal(err)
	}
	if err := DeriveNeeds(members, clients); err != nil {
		t.Fatal(err)
	}
	overlay, err := NewLeLA(5, 24).Build(net, members, 3)
	if err != nil {
		t.Fatal(err)
	}
	initial := make(map[string]float64, len(traces))
	for _, tr := range traces {
		initial[tr.Item] = tr.Ticks[0].Value
	}
	fleet.Seed(initial)
	res, err := RunPush(overlay, traces, NewDistributed(), PushConfig{CompDelay: -1, Observer: fleet})
	if err != nil {
		t.Fatal(err)
	}
	if f := res.Report.SystemFidelity(); f != 1 {
		t.Errorf("repository fidelity %v under ideal conditions, want 1", f)
	}
	stats := fleet.Finalize(res.Horizon)
	if stats.Sessions != 24 {
		t.Errorf("sessions = %d, want 24", stats.Sessions)
	}
	if stats.Delivered == 0 {
		t.Error("no update was delivered to any session")
	}
	// Under zero delays every delivered update reaches the client the
	// instant the source moves, so client-observed fidelity is perfect
	// too — the Eq. 3 leaf filter withholds only sub-tolerance moves.
	if stats.MeanFidelity != 1 {
		t.Errorf("client fidelity %v under ideal conditions, want 1", stats.MeanFidelity)
	}
	fid := fleet.PerSessionFidelity(res.Horizon)
	if len(fid) != 24 {
		t.Errorf("per-client fidelity has %d entries, want 24", len(fid))
	}
	for i, f := range fid {
		if f != 1 {
			t.Errorf("client %s fidelity %v, want 1", clients[i].Name, f)
		}
	}
}

// TestFacadeClientExperiment runs the serving layer through the
// experiment path: Config.Clients populates Outcome.Clients.
func TestFacadeClientExperiment(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Repositories, cfg.Routers = 10, 30
	cfg.Items, cfg.Ticks = 8, 200
	cfg.Clients, cfg.SessionCap = 30, 5
	out, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Clients == nil {
		t.Fatal("client experiment carries no client stats")
	}
	if out.Clients.Sessions != 30 {
		t.Errorf("sessions = %d, want 30", out.Clients.Sessions)
	}
	if out.Clients.MeanFidelity <= 0 || out.Clients.MeanFidelity > 1 {
		t.Errorf("client fidelity %v out of range", out.Clients.MeanFidelity)
	}
}

// TestFacadeRunResilient drives the resilient runner directly through the
// re-exported building blocks.
func TestFacadeRunResilient(t *testing.T) {
	const repos = 8
	net := UniformNetwork(repos, 0)
	traces := GenerateTraces(4, 200, Second, 9)
	members := make([]*Repository, repos)
	for i := range members {
		members[i] = NewRepository(RepositoryID(i+1), 2)
		for j, tr := range traces {
			if (i+j)%2 == 0 {
				members[i].Needs[tr.Item] = 0.05
				members[i].Serving[tr.Item] = 0.05
			}
		}
	}
	lela := NewLeLA(5, 1)
	overlay, err := lela.Build(net, members, 2)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ParseFaultPlan("crash:max@20", repos, 200, Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunResilient(overlay, lela, traces, NewDistributed(), ResilienceConfig{}, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resilience.Crashes != 1 {
		t.Errorf("crashes = %d, want 1", res.Resilience.Crashes)
	}
	if f := res.Report.SystemFidelity(); f <= 0 || f > 1 {
		t.Errorf("fidelity %v out of range", f)
	}
}
