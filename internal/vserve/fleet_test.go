package vserve

import (
	"fmt"
	"reflect"
	"testing"

	"d3t/internal/coherency"
	"d3t/internal/netsim"
	"d3t/internal/obs"
	"d3t/internal/repository"
	"d3t/internal/sim"
)

// The hand-checked fixtures below pin the serving semantics on
// populations small enough to work out by hand: placement, the leaf
// filter, meter arithmetic, churn, crash migration and orphaning.

func client(name string, home repository.ID, tol coherency.Requirement) *repository.Client {
	return &repository.Client{Name: name, Repo: home, Wants: map[string]coherency.Requirement{"X": tol}}
}

// attach admits one client and returns its population index.
func attach(t *testing.T, f *Fleet, c *repository.Client) int {
	t.Helper()
	if err := f.AttachAll([]*repository.Client{c}); err != nil {
		t.Fatal(err)
	}
	return f.SessionCount() - 1
}

func TestCandidatesNearestFirst(t *testing.T) {
	// Uniform network: every pair equidistant, self-delay zero — the home
	// repository must rank first, the rest in id order.
	f, err := NewFleet(netsim.Uniform(4, sim.Millisecond), population(4, []string{"X"}, 0.5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := f.Index().Order(3)
	want := []repository.ID{3, 1, 2, 4}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("candidates from home 3 = %v, want %v", got, want)
	}
}

func TestPlacementCapOverflowRedirects(t *testing.T) {
	f, err := NewFleet(netsim.Uniform(3, sim.Millisecond), population(3, []string{"X"}, 0.5), Options{Cap: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Two clients homed at repository 1: the first takes it, the second
	// must overflow to the next candidate (id 2) and count a redirect.
	a := attach(t, f, client("a", 1, 0.5))
	if r, st := f.SessionRepo(a), f.Finalize(0); r != 1 || st.Redirects != 0 {
		t.Errorf("first client placed at %d (redirects=%d), want its home 1", r, st.Redirects)
	}
	b := attach(t, f, client("b", 1, 0.5))
	if r, st := f.SessionRepo(b), f.Finalize(0); r != 2 || st.Redirects != 1 {
		t.Errorf("overflow client placed at %d (redirects=%d), want one redirect to 2", r, st.Redirects)
	}
}

func TestPlacementAllFullFallsBackToLeastLoaded(t *testing.T) {
	f, err := NewFleet(netsim.Uniform(2, sim.Millisecond), population(2, []string{"X"}, 0.5), Options{Cap: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		attach(t, f, client(fmt.Sprintf("c%d", i), 1, 0.5))
	}
	// Both repositories at cap: the third client must still be placed.
	if s := attach(t, f, client("c2", 1, 0.5)); f.SessionRepo(s) == repository.NoID {
		t.Fatal("overflow client left unplaced")
	}
}

// TestFilteredFanOut is the subsystem's core behavior: attach, update,
// and check that only updates exceeding the client's own tolerance reach
// the session, while the meter integrates the observed coherency.
func TestFilteredFanOut(t *testing.T) {
	f, err := NewFleet(netsim.Uniform(1, sim.Millisecond), population(1, []string{"X"}, 0.1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := attach(t, f, client("a", 1, 1.0))
	f.Seed(map[string]float64{"X": 100})

	// The repository (tolerance 0.1) receives every small move; the
	// client (tolerance 1.0) must see only the large one.
	f.ObserveSource(sim.Second, "X", 100.5)
	f.ObserveDeliver(sim.Second, 1, "X", 100.5) // |Δ|=0.5 ≤ 1 → filtered
	f.ObserveSource(2*sim.Second, "X", 102)
	f.ObserveDeliver(2*sim.Second, 1, "X", 102) // |Δ|=2 > 1 → delivered

	if v, _ := f.SessionValue(s, "X"); v != 102 {
		t.Errorf("session copy %v, want 102 after the violating update", v)
	}
	st := f.Finalize(4 * sim.Second)
	if st.Delivered != 1 || st.Filtered != 1 {
		t.Errorf("delivered/filtered = %d/%d, want 1/1", st.Delivered, st.Filtered)
	}
	// Coherency timeline at tolerance 1.0: in tolerance on [0,2s) (the
	// 0.5 move never violates), violated nowhere — the source jump to 102
	// at 2s is repaired in the same instant. Fidelity must be exactly 1.
	if fid := f.SessionFidelity(s, 4*sim.Second); fid != 1 {
		t.Errorf("fidelity %v, want 1", fid)
	}
}

// TestFidelityIntegratesViolations pins the meter arithmetic: a source
// move the client never receives accrues violation time until the next
// delivery.
func TestFidelityIntegratesViolations(t *testing.T) {
	f, err := NewFleet(netsim.Uniform(1, sim.Millisecond), population(1, []string{"X"}, 0.1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := attach(t, f, client("a", 1, 1.0))
	f.Seed(map[string]float64{"X": 100})

	// Source jumps out of tolerance at 2s; the repair arrives at 6s.
	f.ObserveSource(2*sim.Second, "X", 105)
	f.ObserveDeliver(6*sim.Second, 1, "X", 105)
	// Violated on [2s,6s) of a 10s horizon: fidelity 0.6.
	if fid := f.SessionFidelity(s, 10*sim.Second); fid != 0.6 {
		t.Errorf("fidelity %v, want 0.6", fid)
	}
}

func TestSessionChurnPlanDeterminism(t *testing.T) {
	a, err := ParseSessionPlan("churn:10:20", 50, 400, sim.Second, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ParseSessionPlan("churn:10:20", 50, 400, sim.Second, 7)
	if !reflect.DeepEqual(a, b) {
		t.Error("same spec and seed produced different session plans")
	}
	if len(a.Faults) == 0 {
		t.Fatal("churn plan scheduled no departures")
	}
	for _, ft := range a.Faults {
		if ft.Node < 1 || int(ft.Node) > 50 {
			t.Errorf("departure targets session %d outside 1..50", ft.Node)
		}
	}
}

func TestChurnDepartureStopsObservation(t *testing.T) {
	plan, err := ParseSessionPlan("crash:1@5+5", 1, 20, sim.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(netsim.Uniform(1, sim.Millisecond), population(1, []string{"X"}, 0.1), Options{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	s := attach(t, f, client("a", 1, 1.0))
	f.Seed(map[string]float64{"X": 100})

	// The source jumps at 1s and the repository relays it immediately
	// (|105−100| > 1 → delivered to the client in the same instant). The
	// client departs at 5s and returns at 10s; the return resync finds it
	// already holding the repository's copy.
	f.ObserveSource(sim.Second, "X", 105)
	f.ObserveDeliver(sim.Second, 1, "X", 105)
	st := f.Finalize(20 * sim.Second)
	if st.Departures != 1 || st.Arrivals != 1 {
		t.Errorf("departures/arrivals = %d/%d, want 1/1", st.Departures, st.Arrivals)
	}
	if f.SessionRepo(s) == repository.NoID {
		t.Error("session not re-attached after its churn cycle")
	}
	if fid := f.SessionFidelity(s, 20*sim.Second); fid != 1 {
		t.Errorf("fidelity %v, want 1 (delivered before departure, resynced on return)", fid)
	}
}

func TestCrashMigratesWithResync(t *testing.T) {
	f, err := NewFleet(netsim.Uniform(2, sim.Millisecond), population(2, []string{"X"}, 0.1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := attach(t, f, client("a", 1, 1.0))
	f.Seed(map[string]float64{"X": 100})

	// Repository 2 converges to 105; repository 1 (the session's) dies
	// before relaying it.
	f.ObserveSource(sim.Second, "X", 105)
	f.ObserveDeliver(sim.Second, 2, "X", 105)
	f.ObserveCrash(2*sim.Second, 1)

	if r := f.SessionRepo(s); r != 2 {
		t.Fatalf("session on repository %d after crash, want migration to 2", r)
	}
	if v, _ := f.SessionValue(s, "X"); v != 105 {
		t.Errorf("session copy %v after migration resync, want 105", v)
	}
	st := f.Finalize(4 * sim.Second)
	if st.Migrations != 1 {
		t.Errorf("migrations = %d, want 1", st.Migrations)
	}
	if st.Resyncs != 1 {
		t.Errorf("resyncs = %d, want 1", st.Resyncs)
	}
}

func TestCrashWithNoRoomOrphansThenRejoinRecovers(t *testing.T) {
	f, err := NewFleet(netsim.Uniform(2, sim.Millisecond), population(2, []string{"X"}, 0.1), Options{Cap: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := attach(t, f, client("a", 1, 0.5))
	attach(t, f, client("b", 2, 0.5))
	f.Seed(map[string]float64{"X": 100})

	// Repository 1 dies; repository 2 is at cap — session a is orphaned.
	f.ObserveCrash(sim.Second, 1)
	if f.SessionRepo(a) != repository.NoID {
		t.Fatal("session attached despite every live repository being full")
	}
	// Repository 1 rejoins; the orphan re-homes onto it.
	f.ObserveRejoin(3*sim.Second, 1)
	if r := f.SessionRepo(a); r != 1 {
		t.Fatalf("orphan on repository %d after rejoin, want 1", r)
	}
	st := f.Finalize(5 * sim.Second)
	if st.Orphaned != 1 || st.Migrations != 1 {
		t.Errorf("orphaned/migrations = %d/%d, want 1/1", st.Orphaned, st.Migrations)
	}
}

func TestMigrationPrefersServingCapableRepository(t *testing.T) {
	repos := population(3, []string{"X"}, 0.1)
	// Repository 2 (the nearest alternative by id order) serves X too
	// loosely for the client; repository 3 serves it stringently.
	repos[1].Serving["X"] = 2.0
	f, err := NewFleet(netsim.Uniform(3, sim.Millisecond), repos, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := attach(t, f, client("a", 1, 0.5))
	f.Seed(map[string]float64{"X": 100})
	f.ObserveCrash(sim.Second, 1)
	if r := f.SessionRepo(s); r != 3 {
		t.Errorf("migrated to repository %d, want 3 (the one serving X at the client's tolerance)", r)
	}
}

func TestFleetDeterminism(t *testing.T) {
	run := func() Stats {
		items := []string{"X", "Y", "Z"}
		clients, err := repository.GenerateClients(repository.ClientWorkload{
			Clients: 24, Repos: []repository.ID{1, 2, 3, 4}, Items: items,
			ItemsPerClient: 2, StringentFrac: 0.5, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := ParseSessionPlan("churn:20:10", len(clients), 100, sim.Second, 9)
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewFleet(netsim.Uniform(4, sim.Millisecond), population(4, items, 0.1), Options{Cap: 8, Plan: plan})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.AttachAll(clients); err != nil {
			t.Fatal(err)
		}
		f.Seed(map[string]float64{"X": 100, "Y": 50, "Z": 10})
		for i := 1; i <= 100; i++ {
			v := 100 + float64(i%7)
			f.ObserveSource(sim.Time(i)*sim.Second, "X", v)
			f.ObserveDeliver(sim.Time(i)*sim.Second+sim.Millisecond, repository.ID(1+i%4), "X", v)
		}
		return f.Finalize(100 * sim.Second)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
	if a.Departures == 0 {
		t.Error("churn plan executed no departures")
	}
}

// TestFleetObs checks the serving-layer feed into the observability
// tree: admits and resyncs, cap-overflow redirects with a latency sample
// charged to the repository that turned the client away, and migrations
// charged to the repository that took the session in.
func TestFleetObs(t *testing.T) {
	repos := population(3, []string{"X"}, 0.5)
	tree := obs.NewTree()
	f, err := NewFleet(netsim.Uniform(3, sim.Millisecond), repos, Options{Cap: 1, Obs: tree})
	if err != nil {
		t.Fatal(err)
	}
	attach(t, f, client("a", 1, 0.5))
	b := attach(t, f, client("b", 1, 0.5))
	if r := f.SessionRepo(b); r != 2 {
		t.Fatalf("overflow client placed at %d, want redirect to 2", r)
	}
	f.Seed(map[string]float64{"X": 10})

	n1 := tree.Node(1).Snapshot(0)
	if n1.Counters.Redirects != 1 || n1.Redirect.Count != 1 {
		t.Errorf("repo1 redirect counters: %+v hist %+v, want 1 each", n1.Counters, n1.Redirect)
	}
	// The admission walk paid a round trip to full repo 1 (self-delay 0)
	// plus one to repo 2 (1ms each way): 2ms.
	if n1.Redirect.P50Ms < 1 {
		t.Errorf("redirect latency p50 %vms, want >= the round trip to the next candidate", n1.Redirect.P50Ms)
	}

	// Crash repo 2: its session migrates to repo 3 (repo 1 is at cap),
	// charging a migration there and resyncing the session's copy.
	f.ObserveSource(sim.Second, "X", 20)
	f.ObserveDeliver(sim.Second, 2, "X", 20)
	f.ObserveCrash(2*sim.Second, 2)
	if r := f.SessionRepo(b); r != 3 {
		t.Fatalf("session migrated to %d, want 3", r)
	}
	n3 := tree.Node(3).Snapshot(0)
	if n3.Counters.Migrations != 1 {
		t.Errorf("repo3 migrations = %d, want 1", n3.Counters.Migrations)
	}
	var admits, resyncs uint64
	for _, r := range repos {
		snap := tree.Node(r.ID).Snapshot(0)
		admits += snap.Counters.Admits
		resyncs += snap.Counters.Resyncs
	}
	if admits != 3 { // a, b, and b's migration re-admit
		t.Errorf("admits = %d, want 3", admits)
	}
	if resyncs == 0 {
		t.Errorf("migration resynced the session but no resyncs counted")
	}
}
