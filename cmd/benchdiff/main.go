// Command benchdiff compares two `go test -bench -json` result files and
// trips when any benchmark's timing moved more than a tolerance — the
// CI guardrail that keeps the committed BENCH_latest.json baseline
// honest.
//
// Raw ns/op is machine-dependent: a faster CI runner shifts every
// benchmark by the same factor. benchdiff therefore normalizes by
// default: it computes each shared benchmark's current/baseline ratio,
// divides by the median ratio across all shared benchmarks (the
// machine-speed factor), and applies the tolerance to the normalized
// ratio — catching the benchmark that regressed relative to its peers
// while tolerating uniformly faster or slower hardware. -no-normalize
// compares raw ratios instead.
//
// Benchmarks faster than -min-ns in the baseline are reported but never
// trip: at smoke benchtimes their single-iteration timings are noise.
// Benchmarks present only in the current run — freshly added, not yet in
// the committed baseline — are reported as "new (no baseline)" and
// excluded from the verdict, so adding a benchmark never trips the
// guardrail before the baseline is refreshed. Benchmarks present only in
// the baseline — deleted or renamed since — are reported as "removed (no
// current run)", also without a verdict, so a benchmark cannot vanish
// from the report silently.
//
// Every run prints a per-benchmark delta table (name, old, new,
// normalized delta %). Exit status distinguishes the outcomes: 0 when
// everything is within tolerance, 1 when any benchmark regressed beyond
// it, 3 when benchmarks only *improved* beyond it (the baseline is stale
// — refresh BENCH_latest.json), 2 on usage errors.
//
// Usage:
//
//	benchdiff [-tolerance 0.30] [-min-ns 1000000] [-no-normalize] baseline.json current.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// event is the subset of test2json lines benchdiff reads.
type event struct {
	Action string
	Output string
}

// The bench runner may emit a result on one line
// ("BenchmarkX-8  1234  5678 ns/op") or split the name and the
// measurement across two output events ("BenchmarkX  \t" then
// "  1\t 242859 ns/op ..."), which is how `go test -json` usually
// flushes them.
var (
	benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.eE+]+) ns/op`)
	nameLine  = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?[ \t]*$`)
	measLine  = regexp.MustCompile(`^\s*\d+\s+([0-9.eE+]+) ns/op`)
)

// parseBench extracts benchmark name -> ns/op from a test2json stream.
// Sub-benchmark names keep their full path; the trailing -GOMAXPROCS
// suffix is stripped so runs from different machines align.
func parseBench(r *bufio.Scanner) (map[string]float64, error) {
	out := make(map[string]float64)
	pending := "" // a name-only line awaiting its measurement line
	for r.Scan() {
		line := strings.TrimSpace(r.Text())
		if line == "" {
			continue
		}
		var ev event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			// Tolerate non-JSON lines (plain -bench output pasted in).
			ev = event{Action: "output", Output: line}
		}
		if ev.Action != "output" {
			continue
		}
		text := strings.TrimRight(ev.Output, "\n")
		if m := benchLine.FindStringSubmatch(strings.TrimSpace(text)); m != nil {
			ns, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				return nil, fmt.Errorf("benchdiff: bad ns/op %q in %q", m[2], ev.Output)
			}
			out[m[1]] = ns
			pending = ""
			continue
		}
		if m := nameLine.FindStringSubmatch(text); m != nil {
			pending = m[1]
			continue
		}
		if m := measLine.FindStringSubmatch(text); m != nil && pending != "" {
			ns, err := strconv.ParseFloat(m[1], 64)
			if err != nil {
				return nil, fmt.Errorf("benchdiff: bad ns/op %q in %q", m[1], ev.Output)
			}
			out[pending] = ns
			pending = ""
		}
	}
	return out, r.Err()
}

func parseFile(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	return parseBench(sc)
}

// verdict is one benchmark's comparison. tripped means the normalized
// ratio left the tolerance band in either direction; regressed and
// improved record which. isNew marks a benchmark present in the current
// run but absent from the baseline, isRemoved one present in the
// baseline but absent from the current run: both are reported but carry
// no verdict — a freshly added benchmark has nothing to regress against,
// a removed one nothing to compare, and neither may distort the
// comparison of the shared set.
type verdict struct {
	name                string
	base, cur           float64
	ratio, normalized   float64
	tripped, tooSmall   bool
	regressed, improved bool
	isNew, isRemoved    bool
}

// compare evaluates every benchmark present in both runs, and appends
// verdict-free "new (no baseline)" rows for benchmarks only the current
// run has and "removed (no current run)" rows for benchmarks only the
// baseline has.
func compare(base, cur map[string]float64, tolerance, minNs float64, normalize bool) []verdict {
	var names, fresh, gone []string
	for name := range base {
		if _, ok := cur[name]; ok {
			names = append(names, name)
		} else {
			gone = append(gone, name)
		}
	}
	for name := range cur {
		if _, ok := base[name]; !ok {
			fresh = append(fresh, name)
		}
	}
	sort.Strings(names)
	sort.Strings(fresh)
	sort.Strings(gone)
	unmatched := func(out []verdict) []verdict {
		for _, name := range fresh {
			out = append(out, verdict{name: name, cur: cur[name], isNew: true})
		}
		for _, name := range gone {
			out = append(out, verdict{name: name, base: base[name], isRemoved: true})
		}
		return out
	}
	if len(names) == 0 {
		return unmatched(nil)
	}
	ratios := make([]float64, 0, len(names))
	for _, name := range names {
		ratios = append(ratios, cur[name]/base[name])
	}
	scale := 1.0
	if normalize {
		// The machine-speed factor is the median ratio over the
		// benchmarks large enough to time meaningfully; noisy sub-min-ns
		// ones would skew it.
		var sorted []float64
		for i, name := range names {
			if base[name] >= minNs {
				sorted = append(sorted, ratios[i])
			}
		}
		if len(sorted) == 0 {
			sorted = append(sorted, ratios...)
		}
		sort.Float64s(sorted)
		if n := len(sorted); n%2 == 1 {
			scale = sorted[n/2]
		} else {
			scale = (sorted[n/2-1] + sorted[n/2]) / 2
		}
		if scale <= 0 {
			scale = 1
		}
	}
	out := make([]verdict, 0, len(names))
	for i, name := range names {
		v := verdict{name: name, base: base[name], cur: cur[name], ratio: ratios[i]}
		v.normalized = v.ratio / scale
		v.tooSmall = base[name] < minNs
		if !v.tooSmall {
			v.regressed = v.normalized > 1+tolerance
			v.improved = v.normalized < 1/(1+tolerance)
			v.tripped = v.regressed || v.improved
		}
		out = append(out, v)
	}
	return unmatched(out)
}

// dropMatching removes benchmarks whose name matches the skip pattern.
func dropMatching(m map[string]float64, re *regexp.Regexp) {
	for name := range m {
		if re.MatchString(name) {
			delete(m, name)
		}
	}
}

func main() {
	tolerance := flag.Float64("tolerance", 0.30, "allowed fractional drift per benchmark after normalization")
	minNs := flag.Float64("min-ns", 1e6, "baseline ns/op below which a benchmark is too noisy to trip")
	noNormalize := flag.Bool("no-normalize", false, "compare raw ratios instead of median-normalized ones")
	skip := flag.String("skip", "", "regexp of benchmark names excluded from comparison (e.g. parallelism-shaped benchmarks whose ratio depends on the baseline machine's core count, which median normalization cannot correct)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [flags] baseline.json current.json")
		os.Exit(2)
	}
	base, err := parseFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	cur, err := parseFile(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	if *skip != "" {
		re, err := regexp.Compile(*skip)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: bad -skip pattern: %v\n", err)
			os.Exit(2)
		}
		dropMatching(base, re)
		dropMatching(cur, re)
	}
	verdicts := compare(base, cur, *tolerance, *minNs, !*noNormalize)
	shared, added, removed := 0, 0, 0
	for _, v := range verdicts {
		switch {
		case v.isNew:
			added++
		case v.isRemoved:
			removed++
		default:
			shared++
		}
	}
	if shared == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no shared benchmarks between the two files")
		os.Exit(2)
	}
	regressed, improved := 0, 0
	fmt.Printf("%-60s %12s %12s %8s  %s\n", "benchmark", "old ns/op", "new ns/op", "delta", "status")
	for _, v := range verdicts {
		if v.isNew {
			fmt.Printf("%-60s %12s %12.0f %8s  %s\n",
				v.name, "-", v.cur, "-", "new (no baseline)")
			continue
		}
		if v.isRemoved {
			fmt.Printf("%-60s %12.0f %12s %8s  %s\n",
				v.name, v.base, "-", "-", "removed (no current run)")
			continue
		}
		status := "ok"
		switch {
		case v.regressed:
			status = "REGRESSED"
			regressed++
		case v.improved:
			status = "IMPROVED"
			improved++
		case v.tooSmall:
			status = "noisy (under min-ns)"
		}
		fmt.Printf("%-60s %12.0f %12.0f %+7.1f%%  %s\n",
			v.name, v.base, v.cur, (v.normalized-1)*100, status)
	}
	fmt.Printf("benchdiff: %d shared benchmarks (%d new, %d removed, excluded), %d regressed, %d improved beyond ±%.0f%% (normalized delta shown)\n",
		shared, added, removed, regressed, improved, *tolerance*100)
	switch {
	case regressed > 0:
		os.Exit(1) // regressions dominate: fail the guardrail
	case improved > 0:
		os.Exit(3) // all trips are improvements: refresh the baseline
	}
}
