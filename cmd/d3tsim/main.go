// Command d3tsim runs one fully configured coherency simulation and
// reports fidelity, overlay shape and work counters.
//
// Example:
//
//	d3tsim -repos 100 -routers 600 -items 100 -ticks 10000 \
//	       -T 0.8 -coop 0 -protocol distributed
//
// -coop 0 selects controlled cooperation (Eq. 2 of the paper).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"d3t/internal/core"
	"d3t/internal/obs"
	"d3t/internal/query"
	"d3t/internal/trace"
)

// querySpecs collects the repeatable -query flag.
type querySpecs []string

func (q *querySpecs) String() string     { return strings.Join(*q, " ") }
func (q *querySpecs) Set(s string) error { *q = append(*q, s); return nil }

func main() {
	cfg := core.Default()
	var queries querySpecs
	var (
		verbose     = flag.Bool("v", false, "debug logging on stderr")
		quiet       = flag.Bool("quiet", false, "suppress informational logging")
		obsOn       = flag.Bool("obs", false, "record per-node observability and print a final latency/load summary")
		obsInterval = flag.Duration("obs-interval", 0, "period between obs summary lines on stderr while the run disseminates (implies -obs)")
	)
	flag.IntVar(&cfg.Repositories, "repos", cfg.Repositories, "number of repositories")
	flag.IntVar(&cfg.Routers, "routers", cfg.Routers, "number of routers in the physical network")
	flag.IntVar(&cfg.Items, "items", cfg.Items, "number of data items")
	flag.IntVar(&cfg.Ticks, "ticks", cfg.Ticks, "trace length (1-second ticks)")
	flag.Float64Var(&cfg.SubscribeProb, "subscribe", cfg.SubscribeProb, "per-item subscription probability")
	flag.Float64Var(&cfg.StringentFrac, "T", cfg.StringentFrac, "fraction of items with stringent tolerances (the paper's T)")
	flag.IntVar(&cfg.CoopDegree, "coop", cfg.CoopDegree, "degree of cooperation (0 = controlled, Eq. 2)")
	flag.IntVar(&cfg.CoopK, "k", cfg.CoopK, "Eq. 2 constant k")
	flag.StringVar(&cfg.Builder, "builder", cfg.Builder, "overlay builder: lela, random, greedy-closest, direct")
	flag.Float64Var(&cfg.PPercent, "p", cfg.PPercent, "LeLA load-controller admission band (%)")
	flag.StringVar(&cfg.Preference, "pref", cfg.Preference, "LeLA preference function: P1 or P2")
	flag.StringVar(&cfg.Protocol, "protocol", cfg.Protocol, "dissemination: distributed, centralized, naive-eq3, all-push")
	flag.IntVar(&cfg.Shards, "shards", cfg.Shards, "ingest worker shards items hash-partition across (<=1 = sequential; plain runs only)")
	flag.IntVar(&cfg.BatchTicks, "batch", cfg.BatchTicks, "coalesce each item's updates over windows of this many ticks (<=1 = off; plain runs only)")
	flag.StringVar(&cfg.Workload, "workload", cfg.Workload,
		"trace workload family: "+strings.Join(trace.WorkloadNames(), ", "))
	flag.StringVar(&cfg.WorkloadPath, "workload-path", cfg.WorkloadPath, "trace CSV file for -workload=csv")
	flag.Float64Var(&cfg.CompDelayMs, "comp", cfg.CompDelayMs, "computational delay per dissemination (ms; negative = zero)")
	flag.Float64Var(&cfg.CommDelayMs, "comm", cfg.CommDelayMs, "uniform communication delay (ms; 0 = random topology)")
	flag.StringVar(&cfg.Faults, "faults", cfg.Faults,
		"failure injection: crash:<node|max>@<tick>[+<downticks>], kill:... (process death; recovers from -durability-dir) or churn:<rate>[:<meandown>]")
	flag.IntVar(&cfg.DetectTicks, "detect", cfg.DetectTicks, "failure-detection window in heartbeat intervals (0 = default 3)")
	flag.StringVar(&cfg.Durability.Dir, "durability-dir", cfg.Durability.Dir,
		"write-ahead log directory: every repository logs its state and kill: faults recover from disk (empty = off)")
	flag.IntVar(&cfg.Durability.SnapshotEvery, "snapshot-every", 256, "commits between WAL snapshot rotations")
	flag.StringVar(&cfg.Durability.Fsync, "fsync", cfg.Durability.Fsync, "WAL fsync policy: batch, always, never")
	flag.IntVar(&cfg.Clients, "clients", cfg.Clients, "client sessions served by the repositories (0 = no client layer)")
	flag.IntVar(&cfg.ItemsPerClient, "items-per-client", cfg.ItemsPerClient, "mean watch-list size per client (default 3)")
	flag.IntVar(&cfg.SessionCap, "session-cap", cfg.SessionCap, "sessions per repository before overflow redirects (0 = unlimited)")
	flag.StringVar(&cfg.SessionChurn, "session-churn", cfg.SessionChurn,
		"session arrival/departure plan, same grammar as -faults over the client population")
	flag.IntVar(&cfg.VirtualSessions, "virtual-sessions", cfg.VirtualSessions,
		"virtual sessions served as compact per-shard state (0 = off; mutually exclusive with -clients/-query)")
	flag.StringVar(&cfg.Scenario, "scenario", cfg.Scenario,
		"scenario over the virtual population: flash:at=0.3,frac=0.5,burst=0.2 | regional:at=0.4,frac=0.25,rejoin=0.7 | diurnal:waves=2,low=0.3")
	flag.Var(&queries, "query", "derived-data query spec, repeatable — e.g. 'avg(w=5;ITEM000,ITEM001,ITEM002)@0.05' or 'diff(ITEM000,ITEM001)@0.1!client'")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
	flag.Parse()
	if len(queries) > 0 {
		if _, err := query.ParseList(queries); err != nil {
			fmt.Fprintf(os.Stderr, "d3tsim: %v\n", err)
			os.Exit(2)
		}
		cfg.Queries = append(cfg.Queries, queries...)
	}

	level := obs.LevelInfo
	if *verbose {
		level = obs.LevelDebug
	}
	if *quiet {
		level = obs.LevelQuiet
	}
	logger := obs.NewLogger(os.Stderr, level)

	if *obsOn || *obsInterval > 0 {
		cfg.Obs = obs.NewTree()
	}
	start := time.Now()
	if *obsInterval > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			tick := time.NewTicker(*obsInterval)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					logger.Infof("%s", cfg.Obs.Summary(time.Since(start).Microseconds()))
				}
			}
		}()
	}

	logger.Debugf("d3tsim: running %d repositories, %d items x %d ticks", cfg.Repositories, cfg.Items, cfg.Ticks)
	out, err := core.RunExperiment(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "d3tsim: %v\n", err)
		os.Exit(1)
	}
	workload := cfg.Workload
	if workload == "" {
		workload = "stocks"
	}
	if workload == "csv" {
		// Items/Ticks only cap a replayed set; the file decides the rest.
		fmt.Printf("workload            csv (replay of %s)\n", cfg.WorkloadPath)
	} else {
		fmt.Printf("workload            %s (%d items x %d ticks)\n", workload, cfg.Items, cfg.Ticks)
	}
	fmt.Printf("protocol            %s over %s overlay\n", cfg.Protocol, cfg.Builder)
	fmt.Printf("fidelity            %.4f (loss %.2f%%)\n", out.Fidelity, out.LossPercent)
	fmt.Printf("cooperation degree  %d (avg comm delay %v)\n", out.CoopDegreeUsed, out.AvgCommDelay)
	fmt.Printf("overlay             %v\n", out.Tree)
	fmt.Printf("messages            %d\n", out.Stats.Messages)
	fmt.Printf("source checks       %d\n", out.Stats.SourceChecks)
	fmt.Printf("repository checks   %d\n", out.Stats.RepoChecks)
	fmt.Printf("deliveries          %d\n", out.Stats.Deliveries)
	fmt.Printf("source utilization  %.1f%%\n", 100*out.SourceUtilization)
	fmt.Printf("simulation events   %d\n", out.Stats.Events)
	if (cfg.Shards > 1 || cfg.BatchTicks > 1) && out.Ingest == nil {
		fmt.Printf("ingest              sequential (-shards/-batch apply to plain runs only)\n")
	}
	if ing := out.Ingest; ing != nil {
		fmt.Printf("ingest              %d shards, batch window %d ticks\n", ing.Shards, ing.BatchTicks)
		fmt.Printf("ingest updates      %d disseminated, %d coalesced away\n", ing.Updates, ing.Coalesced)
		fmt.Printf("ingest throughput   %.0f updates/s (%v wall)\n", ing.UpdatesPerSec, ing.Elapsed.Round(time.Millisecond))
	}
	if r := out.Resilience; r != nil {
		fmt.Printf("faults              %s (crashes %d, rejoins %d)\n", cfg.Faults, r.Crashes, r.Rejoins)
		fmt.Printf("detections          %d parent, %d child drops\n", r.Detections, r.ChildDrops)
		fmt.Printf("repairs             %d feeds re-homed, %d orphaned\n", r.Rehomed, r.Orphaned)
		if r.RecoverySamples > 0 {
			fmt.Printf("recovery latency    mean %v, max %v (%d samples)\n",
				r.MeanRecovery, r.MaxRecovery, r.RecoverySamples)
		}
		if r.Kills > 0 || r.DiskRecoveries > 0 {
			fmt.Printf("kills               %d (process deaths; in-memory state lost)\n", r.Kills)
			fmt.Printf("disk recoveries     %d (%d records replayed, %d restored at start)\n",
				r.DiskRecoveries, r.ReplayedRecords, r.RestoredAtStart)
			if r.DiskRecoveries > 0 {
				fmt.Printf("replay time         %v total, %v mean per recovery\n", r.ReplayTime, r.MeanReplay)
			}
		}
		fmt.Printf("heartbeats          %d\n", r.Heartbeats)
	}
	if c := out.Clients; c != nil && cfg.VirtualEnabled() {
		fmt.Printf("virtual sessions    %d in %d shards (%.0f bytes/session resident)\n",
			c.Sessions, c.Shards, c.BytesPerSession)
		fmt.Printf("virtual fidelity    %.4f mean, %.4f worst (loss %.2f%%)\n",
			c.MeanFidelity, c.WorstFidelity, c.LossPercent)
		fmt.Printf("virtual fan-out     %d delivered, %d filtered at the leaf (%d redirected at admission)\n",
			c.Delivered, c.Filtered, c.Redirects)
		if c.Departures+c.Arrivals+c.Migrations+c.Orphaned > 0 {
			fmt.Printf("virtual churn       %d departures, %d arrivals, %d migrations, %d orphaned (%d resync values)\n",
				c.Departures, c.Arrivals, c.Migrations, c.Orphaned, c.Resyncs)
		}
		if cfg.Scenario != "" && cfg.Scenario != "none" {
			fmt.Printf("scenario            %s\n", cfg.Scenario)
		}
	} else if c != nil {
		fmt.Printf("client sessions     %d (cap %d, %d redirected at admission)\n",
			c.Sessions, cfg.SessionCap, c.Redirects)
		fmt.Printf("client fidelity     %.4f mean, %.4f worst (loss %.2f%%)\n",
			c.MeanFidelity, c.WorstFidelity, c.LossPercent)
		fmt.Printf("client fan-out      %d delivered, %d filtered at the leaf\n",
			c.Delivered, c.Filtered)
		if c.Departures+c.Arrivals+c.Migrations+c.Orphaned > 0 {
			fmt.Printf("session churn       %d departures, %d arrivals, %d migrations, %d orphaned (%d resync values)\n",
				c.Departures, c.Arrivals, c.Migrations, c.Orphaned, c.Resyncs)
		}
	}
	if qs := out.Queries; qs != nil {
		fmt.Printf("query sessions      %d\n", qs.Queries)
		fmt.Printf("query fidelity      %.4f mean, %.4f worst (loss %.2f%%, input floor %.4f)\n",
			qs.MeanFidelity, qs.WorstFidelity, qs.LossPercent, qs.MeanInputFloor)
		fmt.Printf("query work          %d evals, %d recomputes\n", qs.Evals, qs.Recomputes)
		fmt.Printf("query messages      %d placement-charged (%d input pushes, %d result pushes, %d resyncs)\n",
			qs.Messages, qs.InputPushes, qs.ResultPushes, qs.Resyncs)
	}
	if snap := out.Obs; snap != nil {
		hop, src, red, viol := cfg.Obs.Merged()
		fmt.Printf("obs hop delay       p50 %.1f ms, p95 %.1f ms, p99 %.1f ms (%d samples)\n",
			hop.P50Ms, hop.P95Ms, hop.P99Ms, hop.Count)
		fmt.Printf("obs source latency  p50 %.1f ms, p95 %.1f ms, p99 %.1f ms\n",
			src.P50Ms, src.P95Ms, src.P99Ms)
		if red.Count > 0 {
			fmt.Printf("obs redirect wait   p50 %.1f ms, p99 %.1f ms (%d redirects)\n",
				red.P50Ms, red.P99Ms, red.Count)
		}
		if viol.Count > 0 {
			fmt.Printf("obs violations      %d closed, p95 %.1f ms\n", viol.Count, viol.P95Ms)
		}
		var busy *obs.NodeSnapshot
		for i := range snap.Nodes {
			n := &snap.Nodes[i]
			if busy == nil || n.Counters.Received > busy.Counters.Received {
				busy = n
			}
		}
		if busy != nil && busy.Counters.Received > 0 {
			fmt.Printf("obs busiest node    %v: %d received, %d forwarded, load %.1f updates/s\n",
				busy.ID, busy.Counters.Received, busy.Counters.DepForwarded, busy.LoadEWMA)
		}
	}
}
