package resilience

import (
	"reflect"
	"testing"

	"d3t/internal/dissemination"
	"d3t/internal/obs"
	"d3t/internal/sim"
)

// TestFaultRunRecordsObs: a run under faults feeds the observability tree
// like a plain run does — one hop and source-latency sample per delivery
// that reached a live node, the protocol's decision counters — and stays
// passive: the run's outcome is the same with and without the tree.
func TestFaultRunRecordsObs(t *testing.T) {
	const seed = 4
	run := func(tree *obs.Tree) *Result {
		o, l, traces := fixture(t, 20, 10, 4, 600, seed)
		plan, err := ParsePlan("crash:max@50+100", 20, 600, sim.Second, seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(o, l, traces, dissemination.NewDistributed(), Config{Push: dissemination.Config{Obs: tree}}, plan)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	tree := obs.NewTree()
	res := run(tree)
	if res.Resilience.Crashes != 1 || res.Resilience.DroppedDeliveries == 0 {
		t.Fatalf("fixture exercised too little: %+v", res.Resilience)
	}
	hop, src, _, _ := tree.Merged()
	if hop.Count != res.Stats.Deliveries || src.Count != res.Stats.Deliveries {
		t.Errorf("hop/source-latency samples %d/%d, want one per live delivery (%d)", hop.Count, src.Count, res.Stats.Deliveries)
	}
	var received, forwarded uint64
	for _, n := range tree.Snapshot(int64(res.Horizon)).Nodes {
		received += n.Counters.Received
		forwarded += n.Counters.DepForwarded
	}
	if received == 0 || forwarded == 0 {
		t.Errorf("decision counters received=%d forwarded=%d, want both non-zero", received, forwarded)
	}
	plain := run(nil)
	if !reflect.DeepEqual(plain.Stats, res.Stats) || plain.Report.SystemFidelity() != res.Report.SystemFidelity() ||
		plain.Resilience != res.Resilience {
		t.Errorf("observation changed the run:\nwithout: %+v %+v\nwith:    %+v %+v", plain.Stats, plain.Resilience, res.Stats, res.Resilience)
	}
}
