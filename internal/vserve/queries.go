package vserve

import (
	"fmt"

	"d3t/internal/coherency"
	"d3t/internal/place"
	"d3t/internal/query"
	"d3t/internal/repository"
	"d3t/internal/sim"
)

// QuerySession is one continuous derived-data query served by the fleet:
// an ordinary input session (the query's items at the allocated per-input
// tolerance, placed/filtered/migrated/resynced exactly like a client's
// watches) plus two incremental evaluators and a result fidelity meter.
//
// The *view* evaluator is fed by the deliveries the serving repository's
// per-client filter lets through — it is the result the client actually
// sees, and its eval/recompute counts are the numbers the cross-backend
// parity test compares. The *truth* evaluator is fed by the source signal
// directly; the result meter integrates |truth − published view| ≤ cQ
// over the session's attached lifetime, which is the end-to-end guarantee
// the tolerance allocation is supposed to buy.
type QuerySession struct {
	// Query is the query being served.
	Query query.Query

	f     *Fleet
	h     uint64 // the input session's handle (query shard)
	truth *query.Eval
	view  *query.Eval
	rm    meter // result meter, c = cQ

	// attached mirrors the input session; predOpen tracks the filter
	// predicate against the truth result. The result meter observes only
	// while both hold — a departed client (or one whose predicate gates
	// the result off) is not owed the result.
	attached bool
	predOpen bool

	// have is the client's copy of the result: the last *published* view
	// result (publication is gated by the predicate on the view result).
	have   float64
	hasPub bool

	inputPushes  uint64 // input deliveries (client-side placement cost)
	resyncPushes uint64 // catch-up input deliveries
	resultPushes uint64 // published result changes (repo-side placement cost)
}

// Repo returns the repository serving the query, or NoID while detached.
func (qs *QuerySession) Repo() repository.ID { return qs.f.repoOf(qs.h) }

// Evals and Recomputes report the view evaluator's counters: input
// deliveries evaluated, and result recomputations (one per delivery once
// every input has a value). They depend only on the delivery sequence,
// so every backend serving the same update stream reports the same
// counts.
func (qs *QuerySession) Evals() uint64      { return qs.view.Evals() }
func (qs *QuerySession) Recomputes() uint64 { return qs.view.Recomputes() }

// Result returns the client's current copy of the result (the last
// published view result).
func (qs *QuerySession) Result() (float64, bool) { return qs.have, qs.hasPub }

// Fidelity returns the result-level fidelity up to now: the fraction of
// observed time the published result was within cQ of the truth result.
func (qs *QuerySession) Fidelity(now sim.Time) float64 {
	f, _ := qs.rm.fidelity(now)
	return f
}

// InputFloor returns the union-bound fidelity floor the inputs imply:
// the result can only be out of tolerance while some input is out of
// its allocated tolerance, so result fidelity ≥ 1 − Σᵢ(1 − fᵢ)
// (clamped at 0). This is the provable side of the allocation argument,
// measured: the query-fidelity figure checks the result stays above it.
func (qs *QuerySession) InputFloor(now sim.Time) float64 {
	shi, i := split(qs.h)
	sh := &qs.f.shards[shi]
	floor := 1.0
	off, n := sh.wOff[i], uint32(sh.wLen[i])
	for wi := off; wi < off+n; wi++ {
		if f, ok := sh.fidelity(wi, now); ok {
			floor -= 1 - f
		}
	}
	if floor < 0 {
		return 0
	}
	return floor
}

// gate reconciles the result meter with the session/predicate state.
func (qs *QuerySession) gate(now sim.Time) {
	qs.rm.advance(now)
	qs.rm.attached = qs.attached && qs.predOpen
}

// QueryOutcome is one query's end-of-run summary.
type QueryOutcome struct {
	Name string
	Spec string
	// Repo is the repository serving the query at the horizon (NoID if
	// detached).
	Repo repository.ID
	// Fidelity is the result-level fidelity; InputFloor the union-bound
	// floor the input fidelities imply (see QuerySession.InputFloor).
	Fidelity   float64
	InputFloor float64
	// Evals and Recomputes are the view evaluator's counters.
	Evals, Recomputes uint64
	// InputPushes and ResultPushes are the per-placement last-hop message
	// costs: client-side evaluation ships every input delivery,
	// repository-side evaluation ships only published result changes.
	// Resyncs counts catch-up input deliveries (admission, migration).
	InputPushes, ResultPushes, Resyncs uint64
}

// QueryStats aggregates the query layer's end-of-run outcomes.
type QueryStats struct {
	// Queries is the catalogue size.
	Queries int
	// Evals and Recomputes sum the view evaluators' counters.
	Evals, Recomputes uint64
	// InputPushes, ResultPushes and Resyncs sum the per-query message
	// tallies; Messages is the realized last-hop cost, charging each
	// query by its declared placement (repo: result pushes; client: input
	// pushes + resyncs).
	InputPushes, ResultPushes, Resyncs uint64
	Messages                           uint64
	// MeanFidelity and WorstFidelity aggregate result-level fidelity;
	// LossPercent is 100*(1-MeanFidelity). MeanInputFloor is the mean
	// union-bound floor — the provable guarantee the allocation bought.
	MeanFidelity   float64
	WorstFidelity  float64
	LossPercent    float64
	MeanInputFloor float64
	// PerQuery is the per-query detail, in catalogue order.
	PerQuery []QueryOutcome
}

// String renders the stats as a one-line summary.
func (s QueryStats) String() string {
	return fmt.Sprintf("queries=%d queryLoss=%.2f%% floor=%.4f evals=%d recomputes=%d msgs=%d",
		s.Queries, s.LossPercent, s.MeanInputFloor, s.Evals, s.Recomputes, s.Messages)
}

// qTick maps simulation time onto the query clock.
func (f *Fleet) qTick(now sim.Time) int64 { return int64(now / f.opts.Interval) }

// AttachQueries admits the fleet's query catalogue (Options.Queries):
// each query becomes an input session subscribed to its items at the
// allocated per-input tolerance, placed like a client homed at a
// repository chosen round-robin. It returns one synthetic client per
// query — already homed at its placement — for the caller to fold into
// DeriveNeeds, so the overlay provably serves every input at least as
// stringently as the allocation demands. Query sessions are not part of
// the client population: Stats, SessionCount and the churn plan's index
// space cover clients only.
func (f *Fleet) AttachQueries() ([]*repository.Client, error) {
	out := make([]*repository.Client, 0, len(f.opts.Queries))
	for i, q := range f.opts.Queries {
		if err := q.Validate(); err != nil {
			return nil, err
		}
		if q.Name == "" {
			return nil, fmt.Errorf("vserve: query %d has no name", i)
		}
		if _, dup := f.byName[q.Name]; dup {
			return nil, fmt.Errorf("vserve: duplicate session %q", q.Name)
		}
		home := repository.ID(1 + i%len(f.repos))
		wants := q.Wants()
		items, tols := f.watchList(wants)
		h := f.create(f.queryShard(), q.Name, place.Key(q.Name), home, items, tols)
		qs := &QuerySession{
			Query:    q,
			f:        f,
			h:        h,
			truth:    query.NewEval(q),
			view:     query.NewEval(q),
			rm:       meter{c: coherency.Requirement(q.Tolerance)},
			predOpen: q.Pred == nil,
		}
		for _, it := range items {
			f.qOwner = append(f.qOwner, uint32(len(f.queries)))
			f.qByItem[it] = append(f.qByItem[it], qs)
		}
		f.queries = append(f.queries, qs)
		target, err := f.placeNew(h, q.Name)
		if err != nil {
			return nil, err
		}
		f.byName[q.Name] = h
		out = append(out, &repository.Client{Name: q.Name, Repo: target, Wants: wants})
	}
	return out, nil
}

// QuerySession returns a query session by query name, or nil.
func (f *Fleet) QuerySession(name string) *QuerySession {
	h, ok := f.byName[name]
	if shi, i := split(h); ok && shi == f.queryShard() {
		return f.queries[i]
	}
	return nil
}

// QuerySessions returns the query catalogue in attachment order.
func (f *Fleet) QuerySessions() []*QuerySession { return f.queries }

// seedQueries installs the initial values into both evaluators and
// primes the result meter — the synchronized-join path, outside the
// delivery stream (no eval/recompute counted).
func (f *Fleet) seedQueries(initial map[string]float64) {
	for _, qs := range f.queries {
		for _, x := range qs.Query.Items {
			if v, ok := initial[x]; ok {
				qs.truth.Seed(x, v, 0)
				qs.view.Seed(x, v, 0)
			}
		}
		if rt, ok := qs.truth.Result(); ok {
			qs.rm.src = rt
			if qs.Query.Pred != nil {
				qs.predOpen = qs.Query.Pred.Holds(rt)
				qs.gate(0)
			}
		}
		if rv, ok := qs.view.Result(); ok {
			if qs.Query.Pred == nil || qs.Query.Pred.Holds(rv) {
				qs.have, qs.hasPub = rv, true
				qs.rm.have = rv
			}
		}
		qs.rm.refresh()
	}
}

// observeQuerySource feeds one source-signal change into every query
// watching the item: the truth evaluator recomputes, the result meter's
// reference moves, and the predicate gate follows the truth result.
func (f *Fleet) observeQuerySource(now sim.Time, id uint32, v float64) {
	for _, qs := range f.qByItem[id] {
		rt, ok, _ := qs.truth.Observe(f.itemName[id], v, f.qTick(now))
		if !ok {
			continue
		}
		qs.rm.advance(now)
		qs.rm.src = rt
		qs.rm.refresh()
		if qs.Query.Pred != nil {
			qs.predOpen = qs.Query.Pred.Holds(rt)
			qs.gate(now)
		}
	}
}

// queryDeliver runs one input delivery (already recorded in the input
// watch's meter) through a query session: the push tallies move, the view
// evaluator recomputes, and a changed result that passes the predicate is
// published to the client's copy.
func (f *Fleet) queryDeliver(qs *QuerySession, now sim.Time, item string, v float64, resync bool) {
	if resync {
		qs.resyncPushes++
	} else {
		qs.inputPushes++
	}
	res, ok, changed := qs.view.Observe(item, v, f.qTick(now))
	recomputed := 0
	if ok {
		recomputed = 1
	}
	f.opts.Obs.Node(qs.Repo()).QueryPass(1, recomputed)
	if !ok || !changed {
		return
	}
	if qs.Query.Pred != nil && !qs.Query.Pred.Holds(res) {
		return
	}
	qs.resultPushes++
	qs.have, qs.hasPub = res, true
	qs.rm.advance(now)
	qs.rm.have = res
	qs.rm.refresh()
}

// FinalizeQueries flushes churn through the horizon and returns the
// query layer's end-of-run statistics. Call it alongside Finalize.
func (f *Fleet) FinalizeQueries(horizon sim.Time) QueryStats {
	f.catchUp(horizon)
	st := QueryStats{Queries: len(f.queries), MeanFidelity: 1, WorstFidelity: 1, MeanInputFloor: 1}
	if len(f.queries) == 0 {
		return st
	}
	var fidSum, floorSum float64
	worst := 1.0
	for _, qs := range f.queries {
		fid := qs.Fidelity(horizon)
		floor := qs.InputFloor(horizon)
		fidSum += fid
		floorSum += floor
		if fid < worst {
			worst = fid
		}
		st.Evals += qs.view.Evals()
		st.Recomputes += qs.view.Recomputes()
		st.InputPushes += qs.inputPushes
		st.ResultPushes += qs.resultPushes
		st.Resyncs += qs.resyncPushes
		if qs.Query.Placement == query.PlaceClient {
			st.Messages += qs.inputPushes + qs.resyncPushes
		} else {
			st.Messages += qs.resultPushes
		}
		st.PerQuery = append(st.PerQuery, QueryOutcome{
			Name:         qs.Query.Name,
			Spec:         qs.Query.String(),
			Repo:         qs.Repo(),
			Fidelity:     fid,
			InputFloor:   floor,
			Evals:        qs.view.Evals(),
			Recomputes:   qs.view.Recomputes(),
			InputPushes:  qs.inputPushes,
			ResultPushes: qs.resultPushes,
			Resyncs:      qs.resyncPushes,
		})
	}
	st.MeanFidelity = fidSum / float64(len(f.queries))
	st.WorstFidelity = worst
	st.LossPercent = 100 * (1 - st.MeanFidelity)
	st.MeanInputFloor = floorSum / float64(len(f.queries))
	return st
}

// meter integrates a query result's coherency over the session's attached
// lifetime: both the truth (src) and the published result (have) are
// piecewise constant, so it accumulates attached time and violated time
// between state changes. Every change first advances the meter to its
// time; a detached meter (a departed client) observes nothing.
type meter struct {
	c coherency.Requirement

	src, have float64
	attached  bool
	inViol    bool
	last      sim.Time // time of the most recent state change
	span      sim.Time // total attached observation time
	viol      sim.Time // attached time spent out of tolerance
}

// advance accounts [m.last, now) against the current state.
func (m *meter) advance(now sim.Time) {
	if now < m.last {
		panic(fmt.Sprintf("vserve: meter moved backwards from %v to %v", m.last, now))
	}
	if m.attached {
		m.span += now - m.last
		if m.inViol {
			m.viol += now - m.last
		}
	}
	m.last = now
}

func (m *meter) refresh() { m.inViol = m.c.Violated(m.src, m.have) }

// fidelity returns the attached-time fidelity up to now, and false when
// the meter never observed any attached time.
func (m *meter) fidelity(now sim.Time) (float64, bool) {
	span, viol := m.span, m.viol
	if m.attached && now > m.last {
		span += now - m.last
		if m.inViol {
			viol += now - m.last
		}
	}
	if span <= 0 {
		return 1, false
	}
	return 1 - float64(viol)/float64(span), true
}
