package live

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"d3t/internal/coherency"
	"d3t/internal/netsim"
	"d3t/internal/repository"
	"d3t/internal/tree"
)

// TestClusterDelayContract pins the per-hop communication delay: on the
// chain source -> P -> Q every hop costs CommDelay, so P must not hold a
// new value before d after Publish and Q (depth 2) not before 2d — and
// both must hold it soon after.
func TestClusterDelayContract(t *testing.T) {
	const d = 30 * time.Millisecond
	c := NewCluster(chainOverlay(t), Options{CommDelay: d})
	c.Seed("X", 100)
	c.Start()
	defer c.Stop()

	start := time.Now()
	c.Publish("X", 500) // beyond both tolerances
	arrived := map[repository.ID]time.Duration{}
	for len(arrived) < 2 && time.Since(start) < 2*time.Second {
		for _, id := range []repository.ID{1, 2} {
			if _, ok := arrived[id]; ok {
				continue
			}
			if v, _ := c.Value(id, "X"); v == 500 {
				arrived[id] = time.Since(start)
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	for id, depth := range map[repository.ID]int{1: 1, 2: 2} {
		got, ok := arrived[id]
		if !ok {
			t.Fatalf("repo%d never received the update: %v", id, c.Snapshot("X"))
		}
		if min := time.Duration(depth) * d; got < min {
			t.Errorf("repo%d (depth %d) held the value after %v, before its %v path delay", id, depth, got, min)
		}
	}
}

// TestClusterDelayPipelines: the delay is per hop, not per batch — a
// burst of batches on one edge arrives about one delay after it was
// sent, not one delay per batch.
func TestClusterDelayPipelines(t *testing.T) {
	const (
		d     = 20 * time.Millisecond
		burst = 20
	)
	c := NewCluster(chainOverlay(t), Options{CommDelay: d})
	c.Seed("X", 100)
	c.Start()
	defer c.Stop()

	start := time.Now()
	last := 100.0
	for i := 1; i <= burst; i++ {
		last = 100 + float64(i)*100 // every step beyond both tolerances
		c.Publish("X", last)
	}
	if !waitFor(t, 5*time.Second, func() bool {
		v, _ := c.Value(2, "X")
		return v == last
	}) {
		t.Fatalf("burst never drained: %v", c.Snapshot("X"))
	}
	// Delays serialised per edge take at least burst*d = 400ms; overlapped
	// ones about 2d. Allow generous scheduling slack.
	if got := time.Since(start); got >= burst*d/2 {
		t.Errorf("a %d-batch burst took %v over two hops of %v: delays are serialised", burst, got, d)
	}
}

// TestClusterDataKeepsParentAlive: with failure detection armed and
// keep-alives far slower than the window, a parent whose only traffic is
// data batches is never failed over — and once it goes silent for the
// window, it is.
func TestClusterDataKeepsParentAlive(t *testing.T) {
	const window = time.Minute // on the injected clock
	o := failoverOverlay(t)
	clk := newTestClock()
	c := NewCluster(o, Options{
		Heartbeat:  time.Hour, // real time: no keep-alive fires during the test
		FailWindow: window,
		Clock:      clk.Now,
		Backups:    map[repository.ID][]repository.ID{2: {repository.SourceID}},
	})
	c.Seed("X", 100)
	c.Start()
	defer c.Stop()

	for i := 1; i <= 6; i++ {
		clk.Advance(window / 2)
		v := 100 + float64(i)*100 // beyond both tolerances
		c.Publish("X", v)
		if !waitFor(t, 2*time.Second, func() bool {
			got, _ := c.Value(2, "X")
			return got == v
		}) {
			t.Fatalf("step %d: update never reached the leaf", i)
		}
		time.Sleep(3 * time.Millisecond) // a few watchdog passes
		if n := c.Failovers(); n != 0 {
			t.Fatalf("step %d: %d failovers although data kept arriving every half window", i, n)
		}
	}

	clk.Advance(window)
	if !waitFor(t, 5*time.Second, func() bool { return c.Failovers() > 0 }) {
		t.Fatal("silent parent was never failed over")
	}
	c.topoMu.RLock()
	parent := o.Node(2).Parents["X"]
	c.topoMu.RUnlock()
	if parent != repository.SourceID {
		t.Errorf("leaf re-homed onto %v, want the source", parent)
	}
}

// fullMeshOverlay builds n repositories that all need every item at the
// same tight tolerance, so every value change reaches every repository.
func fullMeshOverlay(tb testing.TB, n, coop int, items []string) *tree.Overlay {
	tb.Helper()
	repos := make([]*repository.Repository, n)
	for i := range repos {
		repos[i] = repository.New(repository.ID(i+1), coop)
		for _, x := range items {
			repos[i].Needs[x], repos[i].Serving[x] = 0.5, 0.5
		}
	}
	o, err := (&tree.LeLA{}).Build(netsim.Uniform(n, 0), repos, coop)
	if err != nil {
		tb.Fatal(err)
	}
	return o
}

// drainBarrier spins until every listed repository holds want for item.
func drainBarrier(c *Cluster, ids []repository.ID, item string, want float64) {
	for _, id := range ids {
		for {
			if v, _ := c.Value(id, item); v == want {
				break
			}
			runtime.Gosched()
		}
	}
}

// publishAllocs reports the allocations per published 64-update batch on
// a running cluster over o, each publish followed by a drain barrier.
func publishAllocs(o *tree.Overlay, items []string) float64 {
	c := NewCluster(o, Options{})
	for _, x := range items {
		c.Seed(x, 0)
	}
	c.Start()
	defer c.Stop()
	ids := make([]repository.ID, 0, len(o.Nodes))
	for _, n := range o.Nodes {
		ids = append(ids, n.ID)
	}
	ups := make([]Update, len(items))
	v := 0.0
	op := func() {
		v++ // every step beyond every tolerance
		for i, x := range items {
			ups[i] = Update{Item: x, Value: v}
		}
		c.PublishBatch(ups)
		drainBarrier(c, ids, items[len(items)-1], v)
	}
	for i := 0; i < 50; i++ {
		op() // warm-up: buffers pooled, scratch slices sized
	}
	return testing.AllocsPerRun(200, op)
}

// TestClusterHandOffAllocFree pins the hand-off path's allocation
// budget: once warm, a multi-node cluster allocates no more per published
// batch than PublishBatch does on a source with no dependents — so
// receiving, fanning out and forwarding allocate nothing per dependent.
func TestClusterHandOffAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	items := make([]string, 64)
	for i := range items {
		items[i] = fmt.Sprintf("I%02d", i)
	}
	src := repository.New(repository.SourceID, 4)
	alone := &tree.Overlay{Nodes: []*repository.Repository{src}, Net: netsim.Uniform(0, 0)}
	budget := publishAllocs(alone, items)
	got := publishAllocs(fullMeshOverlay(t, 12, 3, items), items)
	t.Logf("allocs per published batch: cluster %.0f, PublishBatch alone %.0f", got, budget)
	if got > budget {
		t.Fatalf("a 13-node cluster allocates %.0f objects per published batch, want at most PublishBatch's own %.0f", got, budget)
	}
}

// BenchmarkClusterPublishBatch measures the live hot path end to end:
// 64-update batches of a random walk over 20 items published into a
// 30-repository LeLA overlay, each op followed by a drain barrier (a
// sentinel item every repository needs, carried in the same batch).
func BenchmarkClusterPublishBatch(b *testing.B) {
	const (
		nRepos = 30
		batch  = 64
	)
	items := make([]string, 20)
	for i := range items {
		items[i] = fmt.Sprintf("I%02d", i)
	}
	repos := make([]*repository.Repository, nRepos)
	for i := range repos {
		repos[i] = repository.New(repository.ID(i+1), 4)
	}
	repository.AssignNeeds(repos, repository.Workload{Items: items, SubscribeProb: 0.5, StringentFrac: 0.5, Seed: 1})
	const sentinel = "sentinel"
	for _, r := range repos {
		r.Needs[sentinel], r.Serving[sentinel] = coherency.Requirement(0.5), coherency.Requirement(0.5)
	}
	o, err := (&tree.LeLA{Seed: 1}).Build(netsim.Uniform(nRepos, 0), repos, 4)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCluster(o, Options{})
	values := make([]float64, len(items))
	for i, x := range items {
		values[i] = 10
		c.Seed(x, values[i])
	}
	c.Seed(sentinel, 0)
	c.Start()
	defer c.Stop()
	ids := make([]repository.ID, 0, len(o.Nodes))
	for _, n := range o.Nodes {
		ids = append(ids, n.ID)
	}

	rng := rand.New(rand.NewSource(1))
	ups := make([]Update, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for op := 1; op <= b.N; op++ {
		for i := 0; i < batch-1; i++ {
			k := rng.Intn(len(items))
			values[k] += rng.Float64() - 0.5
			ups[i] = Update{Item: items[k], Value: values[k]}
		}
		ups[batch-1] = Update{Item: sentinel, Value: float64(op)}
		if !c.PublishBatch(ups) {
			b.Fatal("cluster stopped")
		}
		drainBarrier(c, ids, sentinel, float64(op))
	}
}
