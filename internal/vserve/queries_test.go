package vserve

import (
	"testing"

	"d3t/internal/netsim"
	"d3t/internal/query"
	"d3t/internal/repository"
	"d3t/internal/sim"
)

// TestQuerySessionServed walks one diff(X,Y) query through the serving
// path by hand: the leaf filter withholds an in-tolerance input move,
// a delivered move is evaluated and published, and a crash migrates the
// query with a resync that is evaluated too. Query sessions stay out of
// the client statistics except for the migration they cause.
func TestQuerySessionServed(t *testing.T) {
	q := query.Query{Name: "q0", Kind: query.Diff, Items: []string{"X", "Y"}, Window: 1, Tolerance: 2}
	f, err := NewFleet(netsim.Uniform(2, sim.Millisecond), population(2, []string{"X", "Y"}, 0.1),
		Options{Queries: []query.Query{q}, Interval: sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	qclients, err := f.AttachQueries()
	if err != nil {
		t.Fatal(err)
	}
	if len(qclients) != 1 || qclients[0].Repo != 1 || qclients[0].Wants["X"] != 1 {
		t.Fatalf("query clients %+v, want q0 homed at 1 watching X and Y at cQ/2 = 1", qclients[0])
	}
	f.Seed(map[string]float64{"X": 100, "Y": 50})
	qs := f.QuerySession("q0")
	if r, ok := qs.Result(); !ok || r != 50 {
		t.Fatalf("seeded result %v (%v), want 50", r, ok)
	}

	f.ObserveSource(sim.Second, "X", 100.5)
	f.ObserveDeliver(sim.Second, 1, "X", 100.5) // |Δ|=0.5 ≤ 1 − 0.1 → filtered
	f.ObserveSource(2*sim.Second, "X", 103)
	f.ObserveDeliver(2*sim.Second, 1, "X", 103) // delivered: 103 − 50
	if qs.Evals() != 1 || qs.Recomputes() != 1 {
		t.Fatalf("evals/recomputes = %d/%d after one delivery, want 1/1", qs.Evals(), qs.Recomputes())
	}
	if r, _ := qs.Result(); r != 53 {
		t.Fatalf("result %v, want 53", r)
	}

	// Repository 2 holds X=100 (seeded) and Y=52; repository 1 dies. The
	// query migrates and is resynced to both copies: 100 − 50, then
	// 100 − 52.
	f.ObserveSource(2500*sim.Millisecond, "Y", 52)
	f.ObserveDeliver(2500*sim.Millisecond, 2, "Y", 52)
	f.ObserveCrash(3*sim.Second, 1)
	if qs.Repo() != 2 {
		t.Fatalf("query on repository %v after crash, want 2", qs.Repo())
	}
	if r, _ := qs.Result(); r != 48 || qs.Evals() != 3 {
		t.Fatalf("result %v after %d evals, want 48 after 3", r, qs.Evals())
	}

	qst := f.FinalizeQueries(4 * sim.Second)
	if qst.InputPushes != 1 || qst.Resyncs != 2 || qst.ResultPushes != 3 || qst.Messages != 3 {
		t.Errorf("query tallies %+v, want 1 input push, 2 resyncs, 3 result pushes charged", qst)
	}
	if qst.PerQuery[0].Repo != 2 {
		t.Errorf("outcome repo %v, want 2", qst.PerQuery[0].Repo)
	}
	st := f.Finalize(4 * sim.Second)
	if st.Sessions != 0 || st.Delivered != 0 || st.Filtered != 0 || st.Resyncs != 0 || st.Migrations != 1 {
		t.Errorf("client stats %+v, want only the query's migration counted", st)
	}
}

// TestQueryNameCollides: a query may not reuse a client's session name.
func TestQueryNameCollides(t *testing.T) {
	q := query.Query{Name: "a", Kind: query.Diff, Items: []string{"X", "Y"}, Window: 1, Tolerance: 2}
	f, err := NewFleet(netsim.Uniform(1, sim.Millisecond), population(1, []string{"X", "Y"}, 0.1),
		Options{Queries: []query.Query{q}})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AttachAll([]*repository.Client{client("a", 1, 0.5)}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AttachQueries(); err == nil {
		t.Error("query named like an attached client was admitted")
	}
}
