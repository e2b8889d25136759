package main

import (
	"bufio"
	"regexp"
	"strings"
	"testing"
)

const sampleJSON = `{"Action":"output","Package":"d3t","Output":"goos: linux\n"}
{"Action":"output","Package":"d3t","Test":"BenchmarkFanout","Output":"BenchmarkFanout-8        \t  100000\t     12345 ns/op\t       0 B/op\n"}
{"Action":"output","Package":"d3t","Test":"BenchmarkShardedIngest/shards=8,batch=1","Output":"BenchmarkShardedIngest/shards=8,batch=1-8 \t 1\t 2000000 ns/op\t 55 updates/s\n"}
{"Action":"run","Package":"d3t","Test":"BenchmarkOther"}
{"Action":"output","Package":"d3t","Test":"BenchmarkSplit","Output":"BenchmarkSplit\n"}
{"Action":"output","Package":"d3t","Test":"BenchmarkSplit","Output":"BenchmarkSplit        \t"}
{"Action":"output","Package":"d3t","Test":"BenchmarkSplit","Output":"       1\t    242859 ns/op\t   74448 B/op\t      93 allocs/op\n"}
not json at all
BenchmarkPlain 	 50 	 99000.5 ns/op
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(bufio.NewScanner(strings.NewReader(sampleJSON)))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkFanout":                         12345,
		"BenchmarkShardedIngest/shards=8,batch=1": 2000000,
		"BenchmarkSplit":                          242859,
		"BenchmarkPlain":                          99000.5,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks (%v), want %d", len(got), got, len(want))
	}
	for name, ns := range want {
		if got[name] != ns {
			t.Errorf("%s = %v, want %v", name, got[name], ns)
		}
	}
}

func TestCompareNormalizes(t *testing.T) {
	base := map[string]float64{"A": 10e6, "B": 20e6, "C": 30e6, "D": 5e3, "onlyBase": 1e6}
	// Everything uniformly 2x slower (a slower machine) except C, which
	// regressed 4x — and D, which is below min-ns and must never trip.
	cur := map[string]float64{"A": 20e6, "B": 40e6, "C": 120e6, "D": 50e3, "onlyCur": 1e6}
	vs := compare(base, cur, 0.30, 1e6, true)
	if len(vs) != 6 {
		t.Fatalf("compared %d benchmarks, want 4 shared + 1 new + 1 removed", len(vs))
	}
	byName := map[string]verdict{}
	for _, v := range vs {
		byName[v.name] = v
	}
	if byName["A"].tripped || byName["B"].tripped {
		t.Errorf("uniform machine slowdown tripped: A=%+v B=%+v", byName["A"], byName["B"])
	}
	if !byName["C"].tripped {
		t.Errorf("relative 2x regression did not trip: %+v", byName["C"])
	}
	if byName["D"].tripped || !byName["D"].tooSmall {
		t.Errorf("sub-min-ns benchmark handled wrong: %+v", byName["D"])
	}
	if v := byName["onlyCur"]; !v.isNew || v.tripped {
		t.Errorf("baseline-less benchmark not reported as new: %+v", v)
	}
	if v := byName["onlyBase"]; !v.isRemoved || v.tripped {
		t.Errorf("baseline-only benchmark not reported as removed: %+v", v)
	}
}

func TestCompareReportsRemoved(t *testing.T) {
	// A benchmark deleted since the baseline (here one whose package went
	// away) is reported as removed, carries no verdict, and leaves the
	// shared set's normalization alone.
	base := map[string]float64{"A": 10e6, "B": 20e6, "C": 30e6, "BenchmarkFanOut/sessions=1000": 900e6}
	cur := map[string]float64{"A": 10e6, "B": 20e6, "C": 30e6}
	vs := compare(base, cur, 0.30, 1e6, true)
	if len(vs) != 4 {
		t.Fatalf("compared %d benchmarks, want 3 shared + 1 removed", len(vs))
	}
	last := vs[len(vs)-1]
	if last.name != "BenchmarkFanOut/sessions=1000" || !last.isRemoved || last.isNew {
		t.Fatalf("removed benchmark row %+v, want it last and marked removed", last)
	}
	if last.tripped || last.regressed || last.improved || last.base != 900e6 || last.cur != 0 {
		t.Errorf("removed benchmark carries a verdict or mangled timings: %+v", last)
	}
	for _, v := range vs[:3] {
		if v.tripped || v.isRemoved || v.normalized != 1 {
			t.Errorf("shared benchmark %s disturbed by removed row: %+v", v.name, v)
		}
	}
	if got := compare(map[string]float64{"gone": 5e6}, nil, 0.30, 1e6, true); len(got) != 1 || !got[0].isRemoved {
		t.Errorf("baseline-only comparison = %+v, want one removed row", got)
	}
}

func TestCompareNewExcludedFromVerdict(t *testing.T) {
	// A freshly added benchmark — present only in the current run — is
	// reported as new and must neither trip nor skew the shared set's
	// median normalization, even at an extreme timing.
	base := map[string]float64{"A": 10e6, "B": 20e6, "C": 30e6}
	cur := map[string]float64{"A": 10e6, "B": 20e6, "C": 30e6, "BenchmarkQueryEval": 900e6}
	byName := map[string]verdict{}
	for _, v := range compare(base, cur, 0.30, 1e6, true) {
		byName[v.name] = v
	}
	q, ok := byName["BenchmarkQueryEval"]
	if !ok {
		t.Fatal("new benchmark missing from report")
	}
	if !q.isNew || q.tripped || q.regressed || q.improved {
		t.Errorf("new benchmark carries a verdict: %+v", q)
	}
	if q.cur != 900e6 || q.base != 0 {
		t.Errorf("new benchmark row mangled: %+v", q)
	}
	for _, name := range []string{"A", "B", "C"} {
		if v := byName[name]; v.tripped || v.isNew {
			t.Errorf("shared benchmark %s disturbed by new row: %+v", name, v)
		}
	}
}

func TestCompareOnlyNew(t *testing.T) {
	// No shared benchmarks at all: every row is new or removed, none
	// trips — main still refuses the comparison (exit 2) but compare must
	// not panic.
	vs := compare(map[string]float64{"gone": 1e6}, map[string]float64{"fresh": 2e6}, 0.30, 1e6, true)
	if len(vs) != 2 || !vs[0].isNew || vs[0].tripped || vs[0].name != "fresh" ||
		!vs[1].isRemoved || vs[1].tripped || vs[1].name != "gone" {
		t.Fatalf("disjoint runs compared wrong: %+v", vs)
	}
}

func TestCompareDirection(t *testing.T) {
	// Many stable anchors pin the median ratio at 1, so C's regression
	// and I's improvement are judged against an honest machine factor.
	base := map[string]float64{"A": 10e6, "B": 20e6, "E": 15e6, "F": 25e6, "C": 30e6, "I": 40e6}
	cur := map[string]float64{"A": 10e6, "B": 20e6, "E": 15e6, "F": 25e6, "C": 60e6, "I": 20e6}
	byName := map[string]verdict{}
	for _, v := range compare(base, cur, 0.30, 1e6, true) {
		byName[v.name] = v
	}
	if c := byName["C"]; !c.tripped || !c.regressed || c.improved {
		t.Errorf("2x slowdown not classified as regression: %+v", c)
	}
	if i := byName["I"]; !i.tripped || !i.improved || i.regressed {
		t.Errorf("2x speedup not classified as improvement: %+v", i)
	}
	if a := byName["A"]; a.tripped || a.regressed || a.improved {
		t.Errorf("stable benchmark tripped: %+v", a)
	}
}

func TestDropMatching(t *testing.T) {
	m := map[string]float64{
		"BenchmarkShardedIngest/shards=1,batch=1": 1,
		"BenchmarkShardedIngest/shards=8,batch=1": 2,
		"BenchmarkShardedIngest/shards=8,batch=5": 3,
		"BenchmarkFanout":                         4,
	}
	dropMatching(m, regexp.MustCompile(`ShardedIngest/shards=(2|4|8)`))
	if len(m) != 2 {
		t.Fatalf("kept %d benchmarks (%v), want the single-shard and unrelated ones", len(m), m)
	}
	for _, keep := range []string{"BenchmarkShardedIngest/shards=1,batch=1", "BenchmarkFanout"} {
		if _, ok := m[keep]; !ok {
			t.Errorf("%s was dropped", keep)
		}
	}
}

func TestCompareRaw(t *testing.T) {
	base := map[string]float64{"A": 10e6, "B": 10e6}
	cur := map[string]float64{"A": 10.1e6, "B": 14e6}
	vs := compare(base, cur, 0.30, 1e6, false)
	byName := map[string]verdict{}
	for _, v := range vs {
		byName[v.name] = v
	}
	if byName["A"].tripped {
		t.Errorf("1%% drift tripped raw compare: %+v", byName["A"])
	}
	if !byName["B"].tripped {
		t.Errorf("40%% drift did not trip raw compare: %+v", byName["B"])
	}
}
