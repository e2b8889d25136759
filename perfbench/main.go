// Command perfbench is the repository's benchmark: it runs one named
// workload against the public d3t facade and the runtimes' public APIs,
// checks the outputs, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Human-readable detail lines, each starting with "#", come first. Run
// it through perfbench/run.sh, which builds it from the checkout; see
// perfbench/README.md for the workloads and what every metric means.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"updates_per_s", "updates/cpu-s"},
	{"messages_per_update", "msgs/update"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists the metrics a traced run reports, on every workload.
var perLayer = append([]metricDef{
	{"netsim.generate_ms", "ms"},
	{"trace.generate_ms", "ms"},
	{"serve.place_ms", "ms"},
	{"tree.build_ms", "ms"},
	{"runtime.start_ms", "ms"},
	{"dissemination.run_ms", "ms"},
	{"source.publish_us.p50", "us"},
	{"source.publish_us.p99", "us"},
	{"barrier.drain_ms", "ms"},
	{"dissemination.checks_per_update", "checks/update"},
	{"serve.delivered_per_update", "deliv/update"},
	{"serve.pass_ratio", "ratio"},
	{"serve.session_dropped", "count"},
	{"ingest.coalesce_ns_per_update", "ns/update"},
	{"node.apply_ns_per_update", "ns/update"},
	{"node.allocs_per_update", "allocs/update"},
	{"node.forward_ratio", "ratio"},
	{"wire.encode_ns_per_update", "ns/update"},
	{"wire.decode_ns_per_update", "ns/update"},
	{"wire.bytes_per_update", "B/update"},
	{"wal.commit_ns_per_update", "ns/update"},
	{"wal.bytes_per_update", "B/update"},
	{"wal.rotations", "count"},
	{"obs.apply_overhead_ns_per_update", "ns/update"},
	{"ingest.pipeline_ns_per_update.shards1", "ns/update"},
	{"ingest.pipeline_ns_per_update.shards2", "ns/update"},
	{"ledger.sum_ns_per_update", "ns/update"},
	{"ledger.gap_ns_per_update", "ns/update"},
	{"cpu_profile.samples", "count"},
	{"trace.overhead_pct", "%"},
}, cpuShareDefs()...)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"sim-clients": simClients,
	"live-stream": liveStream,
	"tcp-durable": tcpDurable,
}

// run is one invocation: its options and the report it accumulates.
type run struct {
	seed    int64
	seconds time.Duration
	traced  bool
	// dir is this run's scratch directory (WAL files), removed at exit.
	dir string

	metrics   map[string]float64
	attempted uint64
	failed    uint64
	// problems lists failed output checks; a run with any is incorrect.
	problems []string
	// cpuSamples accumulates the traced run's CPU profile samples.
	cpuSamples []stackSample
	out        *bufio.Writer
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// check records a failed output check unless ok holds.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// note prints one human-readable detail line.
func (r *run) note(format string, args ...any) {
	fmt.Fprintf(r.out, "# "+format+"\n", args...)
}

func main() {
	workload := flag.String("workload", "", "workload name (sim-clients, live-stream, tcp-durable)")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, seconds float64, trace int) error {
	drive, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return fmt.Errorf("scratch directory: %w", err)
	}
	defer os.RemoveAll(dir)
	dir, err = filepath.Abs(dir)
	if err != nil {
		return err
	}
	r := &run{
		seed:    seed,
		seconds: time.Duration(seconds * float64(time.Second)),
		traced:  trace == 1,
		dir:     dir,
		metrics: make(map[string]float64),
		out:     bufio.NewWriter(os.Stdout),
	}
	defer r.out.Flush()
	if err := drive(r); err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	if r.traced {
		r.reportProfile()
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	r.set("vmhwm_mb", rss)
	return r.emit()
}

// emit prints the detail lines and the result line. Every declared metric
// of the run's kind must be present.
func (r *run) emit() error {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			if len(r.problems) == 0 {
				return fmt.Errorf("metric %s is %v", d.name, v)
			}
			v = 0 // a run that failed its checks has nothing to measure
		}
		out[d.name] = value{v, d.unit}
	}
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.note("%-40s %s", name, strconv.FormatFloat(r.metrics[name], 'g', -1, 64))
	}
	for _, p := range r.problems {
		r.note("CHECK FAILED: %s", p)
	}
	if r.attempted == 0 {
		return fmt.Errorf("no operation was attempted")
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	fmt.Fprintln(r.out, string(line))
	return nil
}

// rssEvery is how often sampleRSS reads the resident set.
const rssEvery = 5 * time.Millisecond

// rssSampler reads the process's resident set every rssEvery until
// stopped, keeping the largest reading.
type rssSampler struct {
	stop chan struct{}
	done chan float64
}

// sampleRSS starts a sampler. A run reports the median over its rounds
// of each round's peak: the process-wide peak (VmHWM) is the largest of
// many rounds' peaks, an extreme that moved by a tenth from run to run.
func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		peak := residentMiB()
		for {
			select {
			case <-s.stop:
				s.done <- max(peak, residentMiB())
				return
			case <-t.C:
				peak = max(peak, residentMiB())
			}
		}
	}()
	return s
}

// peak stops the sampler and returns the largest resident set it read,
// in MiB.
func (s *rssSampler) peak() float64 {
	close(s.stop)
	return <-s.done
}

// residentMiB reads the process's resident set from /proc/self/statm.
func residentMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

// Linux's CLOCK_PROCESS_CPUTIME_ID and CLOCK_THREAD_CPUTIME_ID.
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

// cpuNow returns the CPU time, user plus system, every thread of the
// process has used so far. Throughput is measured against CPU time
// rather than wall time: it leaves out the time the machine gives to
// other work (steal, other processes).
func cpuNow() time.Duration { return cpuClock(clockProcessCPUTime) }

// threadCPUNow returns the CPU time the calling thread has used so far.
func threadCPUNow() time.Duration { return cpuClock(clockThreadCPUTime) }

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic(fmt.Sprintf("clock_gettime: %v", errno))
	}
	return time.Duration(ts.Nano())
}

// ms and us convert a duration to fractional milliseconds/microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
