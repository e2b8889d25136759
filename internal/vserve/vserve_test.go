package vserve

import (
	"fmt"
	"math"
	"testing"

	"d3t/internal/coherency"
	"d3t/internal/netsim"
	"d3t/internal/repository"
	"d3t/internal/sim"
	"d3t/internal/trace"
)

// population builds n repositories serving every item at tol.
func population(n int, items []string, tol coherency.Requirement) []*repository.Repository {
	repos := make([]*repository.Repository, n)
	for i := range repos {
		repos[i] = repository.New(repository.ID(i+1), 4)
		for _, x := range items {
			repos[i].Needs[x] = tol
			repos[i].Serving[x] = tol
		}
	}
	return repos
}

// drive pushes a fixed update/crash/rejoin schedule through the fleet.
func drive(f *Fleet, repos int) {
	items := []string{"X", "Y", "Z"}
	for i := 1; i <= 100; i++ {
		now := sim.Time(i) * sim.Second
		x := items[i%3]
		v := 100 + 0.07*float64(i)
		f.ObserveSource(now, x, v)
		for r := 1; r <= repos; r++ {
			if (i+r)%2 == 0 {
				f.ObserveDeliver(now+sim.Millisecond, repository.ID(r), x, v)
			}
		}
		if i == 40 {
			f.ObserveCrash(now+2*sim.Millisecond, 2)
		}
		if i == 70 {
			f.ObserveRejoin(now+2*sim.Millisecond, 2)
		}
	}
}

// TestVirtualParity pins the serving outcome of a mixed workload — cap
// overflow, churn, a crash and a rejoin — across shard counts and worker
// modes: every layout must produce the same stats and bit-identical
// per-session fidelity as the single-shard sequential fleet, and that
// fleet must reproduce the figures the retired one-object-per-session
// fleet produced for the same schedule (recorded below), so the layout
// change that replaced it is pinned to its behaviour.
func TestVirtualParity(t *testing.T) {
	const nRepos, nClients = 4, 60
	items := []string{"X", "Y", "Z"}
	plan, err := ParseSessionPlan("churn:25:10", nClients, 100, sim.Second, 9)
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts Options) (*Fleet, Stats) {
		clients, err := repository.GenerateClients(repository.ClientWorkload{
			Clients: nClients, Repos: []repository.ID{1, 2, 3, 4}, Items: items,
			ItemsPerClient: 2, StringentFrac: 0.5, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		opts.Cap, opts.Plan = 12, plan
		vf, err := NewFleet(netsim.Uniform(nRepos, sim.Millisecond), population(nRepos, items, 0.05), opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := vf.AttachAll(clients); err != nil {
			t.Fatal(err)
		}
		vf.Seed(map[string]float64{"X": 100, "Y": 50, "Z": 10})
		drive(vf, nRepos)
		return vf, vf.Finalize(100 * sim.Second)
	}
	ref, rst := run(Options{Shards: 1})
	want := Stats{
		Sessions: 60, Redirects: 5, Migrations: 12, Resyncs: 33, Orphaned: 26,
		Departures: 22, Arrivals: 21, Delivered: 1257, Filtered: 321,
		MeanFidelity: 0.702705908031842, WorstFidelity: 0.4855502064256225,
	}
	got := rst
	got.LossPercent, got.Shards, got.BytesPerSession = 0, 0, 0
	if math.Abs(got.MeanFidelity-want.MeanFidelity) < 1e-12 {
		got.MeanFidelity = want.MeanFidelity
	}
	if math.Abs(got.WorstFidelity-want.WorstFidelity) < 1e-12 {
		got.WorstFidelity = want.WorstFidelity
	}
	if got != want {
		t.Errorf("serving outcome drifted from the recorded one:\ngot:  %+v\nwant: %+v", got, want)
	}
	refFid := ref.PerSessionFidelity(100 * sim.Second)
	for _, opts := range []Options{{Shards: 8}, {Shards: 8, Workers: 3}} {
		vf, vst := run(opts)
		vst.Shards, vst.BytesPerSession = rst.Shards, rst.BytesPerSession
		if vst != rst {
			t.Errorf("shards=%d workers=%d: stats diverged\nsingle shard: %+v\nsharded:      %+v", opts.Shards, opts.Workers, rst, vst)
		}
		for i, fid := range vf.PerSessionFidelity(100 * sim.Second) {
			if fid != refFid[i] {
				t.Fatalf("shards=%d workers=%d: session %d fidelity %v, single shard %v", opts.Shards, opts.Workers, i, fid, refFid[i])
			}
		}
	}
}

// TestVirtualPlacementIsIndexed pins the O(k) admission contract end to
// end: admitting a large population builds at most one candidate order
// per home endpoint and enumerates ~one candidate per admission while
// the nearest repository has room.
func TestVirtualPlacementIsIndexed(t *testing.T) {
	const nRepos = 16
	items := []string{"X"}
	vf, err := NewFleet(netsim.Uniform(nRepos, sim.Millisecond), population(nRepos, items, 0.05), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := vf.Populate(Synthetic{Sessions: 5000, Items: items, ItemsPerClient: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if b := vf.Index().Builds(); b > nRepos {
		t.Errorf("placement built %d candidate orders, want at most one per home (%d)", b, nRepos)
	}
	if w := vf.Index().Walked(); w != 5000 {
		t.Errorf("placement walked %d candidates over 5000 uncapped admissions, want exactly one each", w)
	}
}

// TestVirtualDeliverAllocFree: steady-state delivery in the virtual
// fleet allocates 0 B/update.
func TestVirtualDeliverAllocFree(t *testing.T) {
	items := []string{"X", "Y", "Z"}
	vf, err := NewFleet(netsim.Uniform(4, sim.Millisecond), population(4, items, 0.05), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := vf.Populate(Synthetic{Sessions: 2000, Items: items, ItemsPerClient: 2, StringentFrac: 0.5, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	vf.Seed(map[string]float64{"X": 100, "Y": 50, "Z": 10})
	now := sim.Second
	v := 100.0
	allocs := testing.AllocsPerRun(200, func() {
		now += sim.Second
		v += 0.3
		vf.ObserveSource(now, "X", v)
		vf.ObserveDeliver(now, 1, "X", v)
		vf.ObserveDeliver(now, 2, "X", v)
	})
	if allocs != 0 {
		t.Errorf("steady-state source+deliver allocates %.1f objects/update, want 0", allocs)
	}
}

// TestVirtualSessionBytes enforces the per-session memory ceiling: the
// resident session-state footprint must stay under 512 bytes per
// admitted session at the default watch-list size.
func TestVirtualSessionBytes(t *testing.T) {
	items := make([]string, 32)
	for i := range items {
		items[i] = "item" + string(rune('A'+i%26)) + string(rune('0'+i/26))
	}
	vf, err := NewFleet(netsim.Uniform(8, sim.Millisecond), population(8, items, 0.05), Options{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50000
	if err := vf.Populate(Synthetic{Sessions: n, Items: items, ItemsPerClient: 3, StringentFrac: 0.3, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	per := float64(vf.Footprint()) / n
	if per > 512 {
		t.Errorf("%.0f bytes/session, want <= 512", per)
	}
	if per < 50 {
		t.Errorf("%.0f bytes/session is implausibly low — Footprint is under-counting", per)
	}
}

// TestVirtualOverflowRing: under cap pressure with the ring enabled,
// admission still places every session on a live repository with room,
// without degenerating to full linear walks.
func TestVirtualOverflowRing(t *testing.T) {
	const nRepos = 16
	items := []string{"X"}
	vf, err := NewFleet(netsim.Uniform(nRepos, sim.Millisecond), population(nRepos, items, 0.05),
		Options{Cap: 100, RingSlots: 16, RingAfter: 4})
	if err != nil {
		t.Fatal(err)
	}
	// 1500 sessions, all homed wherever the generator puts them; cap 100
	// x 16 repos = 1600 slots, so the tail of every hot home's population
	// must overflow through the ring.
	if err := vf.Populate(Synthetic{Sessions: 1500, Items: items, ItemsPerClient: 1, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	if got := vf.Attached(); got != 1500 {
		t.Fatalf("attached %d of 1500 under cap pressure", got)
	}
	for r := 1; r <= nRepos; r++ {
		if vf.Load(repository.ID(r)) > 100 {
			t.Fatalf("repo %d over cap: %d", r, vf.Load(repository.ID(r)))
		}
	}
	// The walk budget: every admission walks at most RingAfter nearest
	// candidates before the ring takes over.
	if w := vf.Index().Walked(); w > 1500*4 {
		t.Errorf("walked %d candidates, want <= RingAfter per admission (%d)", w, 1500*4)
	}
}

// TestVirtualFlashScenario runs a flash crowd end to end: the crowd is
// created detached, arrives in a Pareto burst on the hot item, and is
// admitted, metered and counted.
func TestVirtualFlashScenario(t *testing.T) {
	items := []string{"hot", "a", "b", "c"}
	spec, err := trace.ParseScenario("flash:at=0.3,frac=0.5,burst=0.2")
	if err != nil {
		t.Fatal(err)
	}
	const sessions, ticks = 400, 100
	plan, err := trace.BuildScenario(spec, sessions, 4, ticks, 5)
	if err != nil {
		t.Fatal(err)
	}
	vf, err := NewFleet(netsim.Uniform(4, sim.Millisecond), population(4, items, 0.05),
		Options{Scenario: plan, Interval: sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := vf.Populate(Synthetic{Sessions: sessions, Items: items, ItemsPerClient: 2, StringentFrac: 0.5, Seed: 6, HotItem: "hot"}); err != nil {
		t.Fatal(err)
	}
	if got := vf.Attached(); got != sessions/2 {
		t.Fatalf("attached %d before the burst, want the steady base %d", got, sessions/2)
	}
	vf.Seed(map[string]float64{"hot": 100, "a": 10, "b": 20, "c": 30})
	v := 100.0
	for i := 1; i <= ticks; i++ {
		now := sim.Time(i) * sim.Second
		v += 0.5
		vf.ObserveSource(now, "hot", v)
		for r := 1; r <= 4; r++ {
			vf.ObserveDeliver(now, repository.ID(r), "hot", v)
		}
	}
	st := vf.Finalize(ticks * sim.Second)
	if st.Arrivals != sessions/2 {
		t.Errorf("arrivals = %d, want the whole crowd (%d)", st.Arrivals, sessions/2)
	}
	if got := vf.Attached(); got != sessions {
		t.Errorf("attached %d after the burst, want %d", got, sessions)
	}
	if st.MeanFidelity <= 0 || st.MeanFidelity > 1 || math.IsNaN(st.MeanFidelity) {
		t.Errorf("mean fidelity %v out of range", st.MeanFidelity)
	}
	if st.Delivered == 0 {
		t.Error("flash crowd received no deliveries")
	}
}

// TestVirtualDeterminism: two identical runs produce identical stats.
func TestVirtualDeterminism(t *testing.T) {
	items := []string{"X", "Y", "Z"}
	run := func() Stats {
		plan, err := ParseSessionPlan("churn:20:10", 80, 100, sim.Second, 9)
		if err != nil {
			t.Fatal(err)
		}
		vf, err := NewFleet(netsim.Uniform(4, sim.Millisecond), population(4, items, 0.05), Options{Cap: 30, Plan: plan})
		if err != nil {
			t.Fatal(err)
		}
		if err := vf.Populate(Synthetic{Sessions: 80, Items: items, ItemsPerClient: 2, StringentFrac: 0.5, Seed: 7}); err != nil {
			t.Fatal(err)
		}
		vf.Seed(map[string]float64{"X": 100, "Y": 50, "Z": 10})
		drive(vf, 4)
		return vf.Finalize(100 * sim.Second)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
	if a.Departures == 0 {
		t.Error("churn plan executed no departures")
	}
}

// BenchmarkVirtualAdmit measures synthetic admission throughput.
func BenchmarkVirtualAdmit(b *testing.B) {
	items := []string{"X", "Y", "Z", "W"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vf, err := NewFleet(netsim.Uniform(8, sim.Millisecond), population(8, items, 0.05), Options{Shards: 8})
		if err != nil {
			b.Fatal(err)
		}
		if err := vf.Populate(Synthetic{Sessions: 10000, Items: items, ItemsPerClient: 3, StringentFrac: 0.3, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(10000*float64(b.N)/b.Elapsed().Seconds(), "sessions/s")
}

// BenchmarkVirtualDeliver measures steady-state fan-out: a large
// population spread over eight repositories, and 10/100/1000 sessions on
// one repository — where one upstream delivery fans out to every session
// the repository carries, alternating loose and tight tolerances so both
// filter outcomes are exercised.
func BenchmarkVirtualDeliver(b *testing.B) {
	b.Run("repos=8/sessions=100000", func(b *testing.B) {
		items := []string{"X", "Y", "Z", "W"}
		vf, err := NewFleet(netsim.Uniform(8, sim.Millisecond), population(8, items, 0.05), Options{Shards: 8})
		if err != nil {
			b.Fatal(err)
		}
		if err := vf.Populate(Synthetic{Sessions: 100000, Items: items, ItemsPerClient: 3, StringentFrac: 0.3, Seed: 1}); err != nil {
			b.Fatal(err)
		}
		vf.Seed(map[string]float64{"X": 100, "Y": 50, "Z": 10, "W": 5})
		now := sim.Second
		v := 100.0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now += sim.Second
			v += 0.4
			vf.ObserveSource(now, "X", v)
			for r := 1; r <= 8; r++ {
				vf.ObserveDeliver(now, repository.ID(r), "X", v)
			}
		}
	})
	for _, sessions := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("repos=1/sessions=%d", sessions), func(b *testing.B) {
			f, err := NewFleet(netsim.Uniform(1, sim.Millisecond), population(1, []string{"X"}, 0.01), Options{})
			if err != nil {
				b.Fatal(err)
			}
			clients := make([]*repository.Client, sessions)
			for i := range clients {
				tol := coherency.Requirement(0.5)
				if i%2 == 0 {
					tol = 5
				}
				clients[i] = &repository.Client{
					Name: fmt.Sprintf("c%05d", i), Repo: 1,
					Wants: map[string]coherency.Requirement{"X": tol},
				}
			}
			if err := f.AttachAll(clients); err != nil {
				b.Fatal(err)
			}
			f.Seed(map[string]float64{"X": 100})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := 100 + float64(i%3)
				now := sim.Time(i+1) * sim.Millisecond
				f.ObserveSource(now, "X", v)
				f.ObserveDeliver(now, 1, "X", v)
			}
			st := f.Finalize(sim.Time(b.N+1) * sim.Millisecond)
			b.ReportMetric(float64(st.Delivered+st.Filtered)/float64(b.N), "decisions/op")
		})
	}
}
