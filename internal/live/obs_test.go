package live

import (
	"fmt"
	"testing"
	"time"

	"d3t/internal/coherency"
	"d3t/internal/obs"
)

// TestClusterObsPassive pins the observability contract at the live
// backend: decisions and final copies are identical with and without an
// obs tree attached (update order per item is FIFO, so the filter
// decisions are deterministic even in real time).
func TestClusterObsPassive(t *testing.T) {
	values := []float64{120, 140, 150, 170, 200, 260}
	run := func(tr *obs.Tree) (map[string]float64, string) {
		o := chainOverlay(t)
		c := NewCluster(o, Options{Obs: tr})
		c.Seed("X", 100)
		c.Start()
		defer c.Stop()
		for _, v := range values {
			c.Publish("X", v)
		}
		if !waitFor(t, time.Second, func() bool {
			q, _ := c.Value(2, "X")
			return q == values[len(values)-1]
		}) {
			t.Fatalf("propagation stalled: %v", c.Snapshot("X"))
		}
		final := map[string]float64{}
		for id, v := range c.Snapshot("X") {
			final[id.String()] = v
		}
		return final, fmt.Sprintf("%v %v", c.Decisions(0), c.Decisions(1))
	}

	tree := obs.NewTree()
	tree.Tracer = obs.NewTracer(1)
	plainV, plainD := run(nil)
	obsV, obsD := run(tree)
	if fmt.Sprint(plainV) != fmt.Sprint(obsV) {
		t.Errorf("obs changed final copies: %v vs %v", plainV, obsV)
	}
	if plainD != obsD {
		t.Errorf("obs changed decisions:\nplain:    %s\nobserved: %s", plainD, obsD)
	}
}

// TestClusterObsRecords drives a traced chain and checks everything the
// live backend feeds the layer: core counters, hop and source-latency
// histograms, per-edge delay EWMAs keyed by the upstream parent, batch
// counters, and sampled traces with monotone stamps along the chain.
func TestClusterObsRecords(t *testing.T) {
	o := chainOverlay(t)
	tree := obs.NewTree()
	tree.Tracer = obs.NewTracer(1)
	// The wire delay sits on a histogram bucket boundary (buckets are
	// [2^(b-1), 2^b) µs, reported by midpoint), so every hop, which is at
	// least the delay, reads as at least 2ms. At exactly 2ms, hops of
	// 2.000-2.047ms fell into the bucket reported as 1.536ms.
	c := NewCluster(o, Options{Obs: tree, CommDelay: 2048 * time.Microsecond})
	c.Seed("X", 100)
	c.Start()
	defer c.Stop()

	// Each jump exceeds both tolerances, so every publish reaches Q.
	for _, v := range []float64{200, 300, 400} {
		c.Publish("X", v)
	}
	if !waitFor(t, 2*time.Second, func() bool {
		q, _ := c.Value(2, "X")
		return q == 400
	}) {
		t.Fatalf("updates did not propagate: %v", c.Snapshot("X"))
	}

	snap := c.ObsSnapshot()
	byID := map[string]obs.NodeSnapshot{}
	for _, n := range snap.Nodes {
		byID[n.ID.String()] = n
	}
	for _, id := range []string{"repo1", "repo2"} {
		n, ok := byID[id]
		if !ok {
			t.Fatalf("no snapshot for %s: %+v", id, snap.Nodes)
		}
		if n.Counters.Received == 0 || n.Counters.Batches == 0 {
			t.Errorf("%s: counters did not move: %+v", id, n.Counters)
		}
		if n.Hop.Count == 0 || n.Hop.P50Ms < 2 {
			// Every hop crosses the 2ms comm delay.
			t.Errorf("%s: hop histogram %+v, want count>0 and p50 >= 2ms", id, n.Hop)
		}
		if n.SourceLat.Count == 0 || n.SourceLat.P50Ms < n.Hop.P50Ms {
			t.Errorf("%s: source latency %+v below hop latency %+v", id, n.SourceLat, n.Hop)
		}
		if len(n.EdgeDelayMs) != 1 {
			t.Errorf("%s: edge EWMAs %+v, want exactly the parent edge", id, n.EdgeDelayMs)
		}
		for _, d := range n.EdgeDelayMs {
			if d < 2 {
				t.Errorf("%s: edge delay EWMA %vms below the wire delay", id, d)
			}
		}
	}

	// Traces: every publish is sampled; a fully propagated one holds the
	// source stamp plus one receipt stamp per repository, monotone.
	full := false
	for _, tr := range snap.Traces {
		if len(tr.Hops) == 0 || tr.Hops[0].Node != 0 {
			t.Fatalf("trace %d does not start at the source: %+v", tr.ID, tr.Hops)
		}
		for i := 1; i < len(tr.Hops); i++ {
			if tr.Hops[i].At < tr.Hops[i-1].At {
				t.Fatalf("trace %d: non-monotone hops %+v", tr.ID, tr.Hops)
			}
		}
		if len(tr.Hops) == 3 {
			full = true
		}
	}
	if !full {
		t.Errorf("no trace covered source->P->Q: %+v", snap.Traces)
	}
}

// TestClusterObsSessions checks the serving-layer counters: admissions,
// cap-overflow redirects (with a redirect-latency sample charged to the
// repository that turned the client away), and resyncs.
func TestClusterObsSessions(t *testing.T) {
	o := chainOverlay(t)
	tree := obs.NewTree()
	c := NewCluster(o, Options{SessionCap: 1, Obs: tree})
	c.Seed("X", 100)
	c.Start()
	defer c.Stop()

	wants := map[string]coherency.Requirement{"X": 60}
	a, err := c.Subscribe("a", wants, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Subscribe("b", wants, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Repo() != 1 || b.Repo() != 2 || !b.Redirected() {
		t.Fatalf("placement a=%v b=%v redirected=%v, want 1, 2, true", a.Repo(), b.Repo(), b.Redirected())
	}

	snap := c.ObsSnapshot()
	var admits, redirects, resyncs, redirectSamples uint64
	for _, n := range snap.Nodes {
		admits += n.Counters.Admits
		redirects += n.Counters.Redirects
		resyncs += n.Counters.Resyncs
		redirectSamples += n.Redirect.Count
		if n.ID == 1 && n.Counters.Redirects != 1 {
			t.Errorf("repo1 turned b away but counts %d redirects", n.Counters.Redirects)
		}
	}
	if admits != 2 || redirects != 1 || redirectSamples != 1 {
		t.Errorf("admits=%d redirects=%d redirectSamples=%d, want 2, 1, 1", admits, redirects, redirectSamples)
	}
	if resyncs == 0 {
		t.Errorf("admission resynced seeded copies but no resyncs counted")
	}
}
