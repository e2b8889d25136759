package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"d3t"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		q      float64
		beyond int
	}{
		{1000, 0.99, 10},
		{999, 0.99, 9},
		{1100, 0.99, 11},
		{20, 0.50, 10},
		{19, 0.50, 9},
		{0, 0.99, 0},
	} {
		if got := beyond(c.n, c.q); got != c.beyond {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.beyond)
		}
		if got, want := supported(c.n, c.q), c.beyond >= minBeyond; got != want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := quantile(s, 0.50); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
	if got := quantile(s, 0.99); got != 990 {
		t.Errorf("p99 = %v, want 990", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

// window returns n samples 1..n shifted by base.
func window(n int, base float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = base + float64(i+1)
	}
	return w
}

func TestSummarizeWindowsTakesMedianOfSupportedWindows(t *testing.T) {
	windows := [][]float64{
		window(1000, 0),
		window(1000, 100),
		window(1000, 10000), // one stalled window moves only itself
		window(50, 1e6),     // too few for a p99: counted, not summarized
	}
	s, ok := summarizeWindows(windows)
	if !ok {
		t.Fatal("summary not ok")
	}
	if s.Samples != 3050 || s.Windows != 3 {
		t.Errorf("samples %d windows %d, want 3050 and 3", s.Samples, s.Windows)
	}
	if s.P50 != 600 || s.P99 != 1090 {
		t.Errorf("p50 %v p99 %v, want the middle window's 600 and 1090", s.P50, s.P99)
	}
}

func TestSummarizeWindowsPoolsWhenNoWindowSuffices(t *testing.T) {
	windows := [][]float64{window(600, 0), window(600, 600)}
	s, ok := summarizeWindows(windows)
	if !ok || s.Windows != 0 {
		t.Fatalf("ok %v windows %d, want pooled summary", ok, s.Windows)
	}
	if s.P50 != 600 || s.P99 != 1188 {
		t.Errorf("pooled p50 %v p99 %v, want 600 and 1188", s.P50, s.P99)
	}
	if _, ok := summarizeWindows([][]float64{window(500, 0)}); ok {
		t.Error("500 samples cannot support a p99")
	}
}

func TestReceiverTimesFromDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	rc := &receiver{}
	key := func(item string, v float64) dueKey { return dueKey{item, math.Float64bits(v)} }
	rc.consume("A", 1, false, start) // no open phase yet: ignored
	rc.open.Store(&openPhase{
		start: start,
		due:   map[dueKey]int{key("A", 1.5): 3, key("B", 2.5): 1500},
		base:  2,
	})
	// Tick 3 is due 3 ms after the start; received 0.5 ms later.
	rc.consume("A", 1.5, false, start.Add(3500*time.Microsecond))
	rc.consume("A", 1.5, true, start.Add(time.Hour))    // resync: ignored
	rc.consume("A", 9.9, false, start.Add(time.Second)) // not an open-loop value
	rc.consume("B", 2.5, false, start.Add(1502*time.Millisecond))
	if len(rc.windows) != 4 {
		t.Fatalf("windows %d, want 4 (base 2 + two one-second windows)", len(rc.windows))
	}
	if len(rc.windows[0])+len(rc.windows[1]) != 0 {
		t.Error("samples landed before the phase's base window")
	}
	if got := rc.windows[2]; len(got) != 1 || got[0] != 500 {
		t.Errorf("window 2 = %v, want [500]", got)
	}
	if got := rc.windows[3]; len(got) != 1 || got[0] != 2000 {
		t.Errorf("window 3 = %v, want [2000]", got)
	}
	// The generator's lag is measured against the same due time.
	if lag := start.Add(3200 * time.Microsecond).Sub(dueAt(start, 3)); lag != 200*time.Microsecond {
		t.Errorf("lag %v, want 200µs", lag)
	}
}

func TestOpenBatchesNameTheirTicks(t *testing.T) {
	w := &streamWorld{}
	for i := 0; i < 40; i++ {
		// Values repeat, as a cent-grid walk's do.
		w.open = append(w.open, update{[]string{"A", "B"}[i%2], float64(10 + i%3)})
	}
	batches, due, err := w.openBatches(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 4 || len(due) != 4*openPerTick {
		t.Fatalf("%d batches, %d due entries", len(batches), len(due))
	}
	for tick, b := range batches {
		for _, u := range b {
			if due[dueKey{u.item, math.Float64bits(u.value)}] != tick {
				t.Errorf("%v does not map back to tick %d", u, tick)
			}
			if u.value < 2*jump || u.value > 2*jump+20 {
				t.Errorf("%v is not lifted two jumps", u)
			}
		}
	}
}

func TestBarrierWaitsForEveryHeldCopy(t *testing.T) {
	src, r1, r2 := d3t.NewRepository(d3t.SourceID, 2), d3t.NewRepository(1, 2), d3t.NewRepository(2, 2)
	r1.Serving["A"] = 0.1
	r2.Serving["A"], r2.Serving["B"] = 0.1, 0.2
	o := &d3t.Overlay{Nodes: []*d3t.Repository{src, r1, r2}}
	hold := holdings(o, []string{"A", "B"})
	if len(hold) != 5 {
		t.Fatalf("holdings %v, want the source's two items plus three served copies", hold)
	}
	copies := map[copyRef]float64{}
	value := func(id d3t.RepositoryID, item string) (float64, bool) {
		v, ok := copies[copyRef{id, item}]
		return v, ok
	}
	sentinel := map[string]float64{"A": 7, "B": 8}
	pending := notYet(append([]copyRef(nil), hold...), sentinel, value)
	if len(pending) != 5 {
		t.Fatalf("nothing arrived yet, %d pending", len(pending))
	}
	for _, c := range hold {
		copies[c] = sentinel[c.item]
	}
	copies[copyRef{2, "B"}] = 7.5 // one copy still behind
	if pending = notYet(pending, sentinel, value); len(pending) != 1 || pending[0] != (copyRef{2, "B"}) {
		t.Fatalf("pending %v, want only repo 2's B", pending)
	}
	copies[copyRef{2, "B"}] = 8
	if pending = notYet(pending, sentinel, value); len(pending) != 0 {
		t.Fatalf("pending %v after every copy arrived", pending)
	}
}

func TestLedgerSumFollowsTheWorkloadPath(t *testing.T) {
	ns := map[int]float64{pathCoalesce: 10, pathApply: 100, pathObs: 5, pathWire: 20, pathWAL: 300}
	for _, c := range []struct {
		name string
		path int
		sum  float64
	}{{"sim", simPath, 100}, {"live", livePath, 110}, {"tcp", tcpPath, 435}} {
		sum, gap := ledgerSum(c.path, 1e6, ns)
		if sum != c.sum || gap != 1000-c.sum {
			t.Errorf("%s: sum %v gap %v, want %v and %v", c.name, sum, gap, c.sum, 1000-c.sum)
		}
	}
}

func TestReplayMatchesLiveRuntime(t *testing.T) {
	w, err := buildStream(7, 20_000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := w.reference(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	r := &run{seed: 7, dir: t.TempDir(), metrics: map[string]float64{}}
	c, err := startLive(r, w, 0, &receiver{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	hold := holdings(w.overlay, w.items)
	publish := func(batches [][]update) {
		c.stage(batches, 0)
		for i := range batches {
			if err := c.publish(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	publish(w.closedBatches(0))
	publish([][]update{w.sentinels(0)})
	if !awaitBarrier(c, hold, w.sentinels(0)) {
		t.Fatal("barrier 0 not reached")
	}
	open, _, err := w.openBatches(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	publish(open)
	publish([][]update{w.sentinels(1)})
	if !awaitBarrier(c, hold, w.sentinels(1)) {
		t.Fatal("barrier 1 not reached")
	}
	if got := c.forwarded(); got != ref.forwards || got == 0 {
		t.Errorf("live forwarded %d copies, replay %d", got, ref.forwards)
	}
}

func TestComposedSimMatchesRunExperiment(t *testing.T) {
	cfg := d3t.DefaultConfig()
	cfg.Repositories, cfg.Routers, cfg.Items, cfg.Ticks = 12, 36, 10, 300
	cfg.Clients = 60
	cfg.Seed = 5
	want, err := d3t.RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := buildSim(cfg, cfg.Seed+10)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	defer cal.close()
	got, err := w.push(cal)
	if err != nil {
		t.Fatal(err)
	}
	if got.lossPct != want.LossPercent || got.messages != want.Stats.Messages ||
		got.sourceTicks != want.Stats.SourceTicks || got.clientLossPct != want.Clients.LossPercent ||
		got.delivered != want.Clients.Delivered {
		t.Errorf("composed run %+v differs from RunExperiment %v / %v", got, want, want.Clients)
	}
}

func TestStockTracesSplitShapeFromWalk(t *testing.T) {
	want := d3t.GenerateTraces(5, 50, d3t.Second, 9)
	got, err := stockTraces(5, 50, 9, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Item != want[i].Item || len(got[i].Ticks) != len(want[i].Ticks) {
			t.Fatalf("trace %d: %s/%d, want %s/%d", i, got[i].Item, len(got[i].Ticks), want[i].Item, len(want[i].Ticks))
		}
		for j := range want[i].Ticks {
			if got[i].Ticks[j] != want[i].Ticks[j] {
				t.Fatalf("trace %d tick %d: %v, want %v", i, j, got[i].Ticks[j], want[i].Ticks[j])
			}
		}
	}
	other, err := stockTraces(5, 50, 9, 10)
	if err != nil {
		t.Fatal(err)
	}
	if other[0].Ticks[0] != want[0].Ticks[0] || other[0].Ticks[20] == want[0].Ticks[20] && other[1].Ticks[20] == want[1].Ticks[20] {
		t.Error("another walk seed should keep the start price and move the path")
	}
}

func TestProfileFoldsByPackage(t *testing.T) {
	if err := startProfile(); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	r := &run{metrics: map[string]float64{}}
	if err := r.stopProfile(); err != nil {
		t.Fatal(err)
	}
	r.reportProfile()
	if r.metrics["cpu_profile.samples"] == 0 {
		t.Skip("profiler took no samples")
	}
	if r.metrics["cpu_share.perfbench"] < 50 {
		t.Errorf("a spinning benchmark function got %v%% of the samples", r.metrics["cpu_share.perfbench"])
	}
	var total float64
	for _, m := range cpuModules {
		total += r.metrics["cpu_share."+m]
	}
	if math.Abs(total-100) > 1e-6 {
		t.Errorf("shares add up to %v%%", total)
	}
}

var spinSink int

func spin(d time.Duration) {
	acc := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e6; i++ {
			acc += i * i
		}
	}
	spinSink = acc
}

func TestModuleOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"d3t/internal/node.(*Core).Apply", "main.main"}, "node"},
		{[]string{"d3t/internal/wire.AppendFrame"}, "wire"},
		{[]string{"runtime.mapaccess2_faststr", "d3t/internal/node.(*Core).plan"}, "runtime.map"},
		{[]string{"runtime.mallocgc", "runtime.newobject"}, "runtime.malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.write"}, "syscall"},
		{[]string{"runtime.futex"}, "runtime.other"},
		{[]string{"sort.Strings"}, "stdlib"},
		{[]string{"main.spin"}, "perfbench"},
	} {
		if got := moduleOf(c.stack); got != c.want {
			t.Errorf("moduleOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestBenchmarkFileMatchesMetrics keeps BENCHMARK.json and the metrics
// this command reports in step.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, want)
	}
	for _, c := range []struct {
		file []struct{ Name, Unit string }
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.file) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, command reports %d", len(c.file), len(c.defs))
			continue
		}
		for i, m := range c.file {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), command %s (%s)", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

func TestChunkRatesDivideChangesByCPUTime(t *testing.T) {
	o := simOutcome{}
	for i := 0; i < 2*chunkTicks+7; i++ {
		o.tickCPU = append(o.tickCPU, 10)        // µs per tick
		o.tickChanges = append(o.tickChanges, 3) // changes per tick
	}
	got := o.chunkRates()
	if len(got) != 2 {
		t.Fatalf("%d chunks from %d ticks, want 2 whole chunks", len(got), len(o.tickCPU))
	}
	for _, r := range got {
		if r != 3/10e-6 {
			t.Fatalf("chunk rate %v, want %v", r, 3/10e-6)
		}
	}
}

func TestSampleRSSReadsTheResidentSet(t *testing.T) {
	s := sampleRSS()
	time.Sleep(3 * rssEvery)
	if p := s.peak(); p <= 0 {
		t.Fatalf("peak resident set %v MiB", p)
	}
}
