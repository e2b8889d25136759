package d3t

// The cross-backend parity test: one mid-size configuration pushed
// through all three runtimes — the discrete-event simulator, the
// goroutine cluster, and the TCP cluster — must produce identical
// per-(repository, item) forward/suppress decision counts.
//
// This is the observable guarantee of the shared repository core
// (internal/node): per (repo, item), the delivered sequence is a
// deterministic function of the filter chain from the source — every
// edge is FIFO in all three transports and every filter decision is a
// pure function of the per-item edge state — so however the transports
// schedule, delay or interleave across items, the decisions must agree
// exactly. A divergence means a transport grew its own filter semantics
// again, which is precisely the drift this test exists to catch.
//
// The sweep extends the guarantee across the ingest layer: sharding
// (items partitioned across parallel workers/sub-simulations) must not
// change a single decision, and batching (window coalescing) must change
// them identically everywhere, because every backend feeds from the same
// coalesced schedule (ingest.CoalesceTraces).

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"d3t/internal/dissemination"
	"d3t/internal/ingest"
	"d3t/internal/netio"
	"d3t/internal/netsim"
	"d3t/internal/node"
	"d3t/internal/query"
	"d3t/internal/repository"
	"d3t/internal/sim"
	"d3t/internal/trace"
	"d3t/internal/tree"
	"d3t/internal/vserve"

	ilive "d3t/internal/live"
)

const (
	parityRepos = 10
	parityItems = 6
	parityTicks = 250
	paritySeed  = 42
	parityCoop  = 4
)

// parityWorld builds one deterministic overlay + trace set. Each backend
// builds its own copy (the overlay is mutated by running), from identical
// inputs.
func parityWorld(t *testing.T) (*tree.Overlay, []*trace.Trace, map[string]float64) {
	t.Helper()
	traces := trace.GenerateSet(parityItems, parityTicks, sim.Second, paritySeed)
	items := make([]string, len(traces))
	initial := make(map[string]float64, len(traces))
	for i, tr := range traces {
		items[i] = tr.Item
		initial[tr.Item] = tr.Ticks[0].Value
	}
	repos := make([]*repository.Repository, parityRepos)
	for i := range repos {
		repos[i] = repository.New(repository.ID(i+1), parityCoop)
	}
	repository.AssignNeeds(repos, repository.Workload{
		Items:         items,
		SubscribeProb: 0.6,
		StringentFrac: 0.4,
		Seed:          paritySeed,
	})
	net := netsim.Uniform(parityRepos, sim.Millisecond)
	o, err := (&tree.LeLA{Seed: paritySeed}).Build(net, repos, parityCoop)
	if err != nil {
		t.Fatal(err)
	}
	return o, traces, initial
}

// decisionKey flattens (repo, item) for comparison.
func decisionKey(id repository.ID, item string) string {
	return fmt.Sprintf("%v/%s", id, item)
}

// srcTick is one value change of the source feed.
type srcTick struct {
	item  string
	value float64
}

// tickFeed groups the trace set's value changes by tick index — the
// batched publish schedule every concurrent backend replays.
func tickFeed(traces []*trace.Trace) [][]srcTick {
	maxLen := 0
	for _, tr := range traces {
		if tr.Len() > maxLen {
			maxLen = tr.Len()
		}
	}
	feed := make([][]srcTick, 0, maxLen)
	last := make(map[string]float64, len(traces))
	for _, tr := range traces {
		last[tr.Item] = tr.Ticks[0].Value
	}
	for i := 1; i < maxLen; i++ {
		var batch []srcTick
		for _, tr := range traces {
			if i >= tr.Len() || tr.Ticks[i].Value == last[tr.Item] {
				continue
			}
			last[tr.Item] = tr.Ticks[i].Value
			batch = append(batch, srcTick{tr.Item, tr.Ticks[i].Value})
		}
		if len(batch) > 0 {
			feed = append(feed, batch)
		}
	}
	return feed
}

// protoDecisions flattens the decisions of a sharded simulator run.
func protoDecisions(o *tree.Overlay, protos []dissemination.Protocol) map[string]node.Decisions {
	out := make(map[string]node.Decisions)
	for _, p := range protos {
		d, ok := p.(*dissemination.Distributed)
		if !ok {
			continue
		}
		for _, n := range o.Nodes {
			for item, dec := range d.Core(n.ID).EdgeDecisions() {
				k := decisionKey(n.ID, item)
				cur := out[k]
				cur.Forwarded += dec.Forwarded
				cur.Suppressed += dec.Suppressed
				out[k] = cur
			}
		}
	}
	return out
}

// waitForDecisions polls until collect equals want or the deadline
// passes, returning the final observation.
func waitForDecisions(want map[string]node.Decisions, collect func() map[string]node.Decisions) map[string]node.Decisions {
	deadline := time.Now().Add(20 * time.Second)
	for {
		got := collect()
		if decisionsEqual(want, got) || time.Now().After(deadline) {
			return got
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func decisionsEqual(a, b map[string]node.Decisions) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func diffDecisions(t *testing.T, backend string, want, got map[string]node.Decisions) {
	t.Helper()
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			t.Errorf("%s: %s = %+v, want %+v", backend, k, got[k], w)
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: unexpected decisions %s = %+v", backend, k, g)
		}
	}
}

// TestCrossBackendParity sweeps the ingest configuration over
// {Shards: 1, 4} x {BatchTicks: 0, 5} and, for every combination, runs
// the same configuration through sim, live and netio, requiring
// identical per-(repo, item) decision counts across all three.
func TestCrossBackendParity(t *testing.T) {
	if testing.Short() {
		t.Skip("three full backends per sweep point; skipped in -short")
	}
	for _, tc := range []struct{ shards, batch int }{
		{1, 0},
		{4, 0},
		{1, 5},
		{4, 5},
	} {
		t.Run(fmt.Sprintf("shards=%d,batch=%d", tc.shards, tc.batch), func(t *testing.T) {
			parityCase(t, tc.shards, tc.batch)
		})
	}
}

// TestCrossBackendQueryParity extends the parity guarantee to the query
// layer: one query session, subscribed at the same repository in all
// three backends, must report identical view-evaluator eval/recompute
// counts. The counts depend only on the delivery sequence the serving
// repository's per-client filter produces — resync deliveries at
// admission plus every forwarded input update — so however the backends
// schedule, the evaluation work must agree exactly. A divergence means a
// transport grew its own query semantics.
func TestCrossBackendQueryParity(t *testing.T) {
	if testing.Short() {
		t.Skip("three full backends; skipped in -short")
	}
	// The query's inputs must come from repository 1's serving set (the
	// session is homed there in every backend and live/netio admission
	// requires the items to be served stringently enough).
	o, traces, initial := parityWorld(t)
	r1 := o.Node(1)
	var served []string
	for x := range r1.Serving {
		served = append(served, x)
	}
	sort.Strings(served)
	if len(served) < 2 {
		t.Fatalf("repository 1 serves %d items; the query parity case needs 2", len(served))
	}
	a, b := served[0], served[1]
	// cQ = 2x the looser serving tolerance: loose enough that the avg
	// allocation (= cQ per input) passes admission at repository 1, tight
	// enough that the per-client filter still forwards real updates.
	tolA, _ := r1.ServingTolerance(a)
	tolB, _ := r1.ServingTolerance(b)
	cq := 2 * float64(max(tolA, tolB))
	q := query.Query{Name: "qparity", Kind: query.Avg, Items: []string{a, b}, Window: 1, Tolerance: cq}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}

	// --- Simulator: a serving fleet observing the run is the reference.
	// Seed BEFORE attaching the query, so the admission resync delivers
	// the seeded copies through the counted path — exactly what a
	// live/netio subscribe against a seeded cluster does.
	fleet, err := vserve.NewFleet(o.Net, o.Repos(), vserve.Options{Queries: []query.Query{q}, Interval: 1})
	if err != nil {
		t.Fatal(err)
	}
	fleet.Seed(initial)
	if _, err := fleet.AttachQueries(); err != nil {
		t.Fatal(err)
	}
	qs := fleet.QuerySession(q.Name)
	if qs.Repo() != 1 {
		t.Fatalf("sim query landed at %v, want repository 1", qs.Repo())
	}
	if _, err := dissemination.Run(o, traces, dissemination.NewDistributed(), dissemination.Config{Observer: fleet}); err != nil {
		t.Fatal(err)
	}
	wantEvals, wantRecs := qs.Evals(), qs.Recomputes()
	if wantEvals <= 2 {
		t.Fatalf("sim query saw only the %d resync deliveries (cq=%v too loose); the parity case is vacuous", wantEvals, cq)
	}

	// Every concurrent backend replays the identical coalesced schedule.
	icfg := ingest.Config{Shards: 1, BatchTicks: 0}
	_, freshTraces, _ := parityWorld(t)
	coalesced, _ := ingest.CoalesceTraces(freshTraces, icfg.Window())
	feed := tickFeed(coalesced)
	waitCounts := func(get func() (uint64, uint64)) (uint64, uint64) {
		deadline := time.Now().Add(20 * time.Second)
		for {
			evals, recs := get()
			if (evals == wantEvals && recs == wantRecs) || time.Now().After(deadline) {
				return evals, recs
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// --- Goroutine cluster: subscribe after seeding, before the feed. ---
	o2, _, _ := parityWorld(t)
	cluster := ilive.NewCluster(o2, ilive.Options{Buffer: 1024, QueryInterval: 1})
	for item, v := range initial {
		cluster.Seed(item, v)
	}
	sess, err := cluster.SubscribeQuery(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Repo() != 1 {
		t.Fatalf("live query landed at %v, want repository 1", sess.Repo())
	}
	cluster.Start()
	for _, batchTicks := range feed {
		ups := make([]ilive.Update, len(batchTicks))
		for i, u := range batchTicks {
			ups[i] = ilive.Update{Item: u.item, Value: u.value}
		}
		if !cluster.PublishBatch(ups) {
			t.Fatal("live cluster stopped")
		}
	}
	liveEvals, liveRecs := waitCounts(sess.QueryCounts)
	cluster.Stop()
	if liveEvals != wantEvals || liveRecs != wantRecs {
		t.Errorf("live: evals/recomputes = %d/%d, want %d/%d", liveEvals, liveRecs, wantEvals, wantRecs)
	}

	// --- TCP cluster: the subscribe frame carries the query spec. ---
	o3, _, initial3 := parityWorld(t)
	tcp, err := netio.StartCluster(o3, initial3)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	qc, err := netio.SubscribeQuery(q, tcp.Nodes[1].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	for _, batchTicks := range feed {
		ups := make([]netio.Update, len(batchTicks))
		for i, u := range batchTicks {
			ups[i] = netio.Update{Item: u.item, Value: u.value}
		}
		if err := tcp.Source().PublishBatch(ups); err != nil {
			t.Fatalf("publish batch: %v", err)
		}
	}
	netEvals, netRecs := waitCounts(func() (uint64, uint64) { return tcp.Nodes[1].QueryCounts(q.Name) })
	if netEvals != wantEvals || netRecs != wantRecs {
		t.Errorf("netio: evals/recomputes = %d/%d, want %d/%d", netEvals, netRecs, wantEvals, wantRecs)
	}
}

func parityCase(t *testing.T, shards, batch int) {
	icfg := ingest.Config{Shards: shards, BatchTicks: batch}

	// --- Simulator (sharded ingest runner): the reference decisions. ---
	o, traces, _ := parityWorld(t)
	res, _, protos, err := ingest.RunSim(o, traces,
		func() dissemination.Protocol { return dissemination.NewDistributed() },
		dissemination.Config{}, icfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SourceTicks == 0 {
		t.Fatal("simulator disseminated nothing")
	}
	want := protoDecisions(o, protos)
	if len(want) == 0 {
		t.Fatal("simulator produced no decisions; the parity test is vacuous")
	}

	// Every concurrent backend replays the identical coalesced schedule.
	_, freshTraces, initial := parityWorld(t)
	coalesced, _ := ingest.CoalesceTraces(freshTraces, icfg.Window())
	feed := tickFeed(coalesced)

	// --- Goroutine cluster, sharded per the same item partition. ---
	o2, _, _ := parityWorld(t)
	cluster := ilive.NewCluster(o2, ilive.Options{Buffer: 1024, Shards: shards})
	for item, v := range initial {
		cluster.Seed(item, v)
	}
	cluster.Start()
	for _, batchTicks := range feed {
		ups := make([]ilive.Update, len(batchTicks))
		for i, u := range batchTicks {
			ups[i] = ilive.Update{Item: u.item, Value: u.value}
		}
		if !cluster.PublishBatch(ups) {
			t.Fatal("live cluster stopped")
		}
	}
	liveGot := waitForDecisions(want, func() map[string]node.Decisions {
		out := make(map[string]node.Decisions)
		for _, n := range o2.Nodes {
			for item, d := range cluster.Decisions(n.ID) {
				out[decisionKey(n.ID, item)] = d
			}
		}
		return out
	})
	cluster.Stop()
	diffDecisions(t, "live", want, liveGot)

	// --- TCP cluster: batches ride multi-update frames. ---
	o3, _, initial3 := parityWorld(t)
	tcp, err := netio.StartCluster(o3, initial3)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	for _, batchTicks := range feed {
		ups := make([]netio.Update, len(batchTicks))
		for i, u := range batchTicks {
			ups[i] = netio.Update{Item: u.item, Value: u.value}
		}
		if err := tcp.Source().PublishBatch(ups); err != nil {
			t.Fatalf("publish batch: %v", err)
		}
	}
	netGot := waitForDecisions(want, func() map[string]node.Decisions {
		out := make(map[string]node.Decisions)
		for _, n := range tcp.Nodes {
			for item, d := range n.Decisions() {
				out[decisionKey(n.ID(), item)] = d
			}
		}
		return out
	})
	diffDecisions(t, "netio", want, netGot)
}
