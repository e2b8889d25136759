package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"d3t"
	"d3t/internal/ingest"
	"d3t/internal/node"
	"d3t/internal/obs"
	"d3t/internal/wal"
	"d3t/internal/wire"
)

// update is one (item, value) pair of a published batch.
type update struct {
	item  string
	value float64
}

// ledgerUpdates caps how many recorded updates the ledger replays: enough
// that per-update costs are steady, few enough that the traced run stays
// short.
const ledgerUpdates = 100_000

// Which layers each workload's updates cross, for ledger.sum_ns_per_update.
const (
	pathCoalesce = 1 << iota
	pathApply
	pathObs
	pathWire
	pathWAL
)

const (
	simPath  = pathApply
	livePath = pathCoalesce | pathApply
	tcpPath  = pathCoalesce | pathApply | pathObs | pathWire | pathWAL
)

// ledger replays a workload's recorded batches through each layer's
// public entry point on its own, in one goroutine, to price every layer
// per published update.
type ledger struct {
	overlay *d3t.Overlay
	initial map[string]float64
	batches [][]update
	updates int
	dir     string
}

func newLedger(o *d3t.Overlay, initial map[string]float64, batches [][]update, dir string) *ledger {
	l := &ledger{overlay: o, initial: initial, batches: batches, dir: dir}
	for _, b := range batches {
		l.updates += len(b)
	}
	return l
}

// perUpdate converts a duration into nanoseconds per replayed update.
func (l *ledger) perUpdate(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / float64(l.updates)
}

// measure runs every pass and reports the ledger's per-layer metrics;
// rate is the workload's untraced end-to-end updates per CPU second and
// path the layers its updates cross.
func (l *ledger) measure(r *run, rate float64, path int) error {
	coalesced, spent := coalesce(l.batches)
	coalesceNs := l.perUpdate(spent)

	// Each pass first runs on throwaway cores to warm the code and the
	// allocator, then times fresh cores, whose decisions are the
	// reference's.
	plain := newReplay(l.overlay, l.initial, nil)
	plain.run(coalesced)
	plain = newReplay(l.overlay, l.initial, nil)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	plain.run(coalesced)
	applyNs := l.perUpdate(time.Since(t0))
	runtime.ReadMemStats(&m1)

	observed := newReplay(l.overlay, l.initial, obs.NewTree())
	observed.run(coalesced)
	observed = newReplay(l.overlay, l.initial, obs.NewTree())
	t0 = time.Now()
	observed.run(coalesced)
	obsNs := l.perUpdate(time.Since(t0)) - applyNs

	rec := newReplay(l.overlay, l.initial, nil)
	rec.record = true
	rec.run(coalesced)
	encNs, decNs, wireBytes, err := l.wirePass(rec.frames)
	if err != nil {
		return err
	}
	// As in tcp-durable, fsync is off so the pass times the log's code and
	// write calls, not the disk under the checkout.
	walNs, rotations, _, err := l.walPass(rec, wal.Options{Fsync: wal.PolicyNever})
	if err != nil {
		return err
	}
	// Without rotation every record stays on disk, so the directory size
	// is the bytes the log wrote.
	_, _, walSize, err := l.walPass(rec, wal.Options{SnapshotEvery: 1 << 30, Fsync: wal.PolicyNever})
	if err != nil {
		return err
	}
	pipe1 := l.pipelinePass(1)
	pipe2 := l.pipelinePass(2)

	r.set("ingest.coalesce_ns_per_update", coalesceNs)
	r.set("node.apply_ns_per_update", applyNs)
	r.set("node.allocs_per_update", float64(m1.Mallocs-m0.Mallocs)/float64(l.updates))
	r.set("node.forward_ratio", float64(plain.forwards)/float64(plain.checks))
	r.set("obs.apply_overhead_ns_per_update", obsNs)
	r.set("wire.encode_ns_per_update", encNs)
	r.set("wire.decode_ns_per_update", decNs)
	r.set("wire.bytes_per_update", wireBytes)
	r.set("wal.commit_ns_per_update", walNs)
	r.set("wal.bytes_per_update", float64(walSize)/float64(l.updates))
	r.set("wal.rotations", float64(rotations))
	r.set("ingest.pipeline_ns_per_update.shards1", pipe1)
	r.set("ingest.pipeline_ns_per_update.shards2", pipe2)
	sum, gap := ledgerSum(path, rate, map[int]float64{
		pathCoalesce: coalesceNs, pathApply: applyNs, pathObs: obsNs,
		pathWire: encNs + decNs, pathWAL: walNs,
	})
	r.set("ledger.sum_ns_per_update", sum)
	r.set("ledger.gap_ns_per_update", gap)
	r.note("ledger: %d updates in %d batches replayed per pass", l.updates, len(l.batches))
	return nil
}

// ledgerSum adds the per-update costs of the layers on a workload's path
// and returns the sum and the gap to the end-to-end CPU cost of an
// update at rate updates per CPU second: what scheduling, locks and
// system calls cost beyond the layers' own work.
func ledgerSum(path int, rate float64, ns map[int]float64) (sum, gap float64) {
	for bit, v := range ns {
		if path&bit != 0 {
			sum += v
		}
	}
	return sum, 1e9/rate - sum
}

// coalesce runs every batch through the in-batch coalescing rule and the
// shard hash, as live's PublishBatch does for one shard, and returns the
// surviving batches and the time the rule and the hash took.
func coalesce(batches [][]update) ([][]update, time.Duration) {
	out := make([][]update, len(batches))
	idx := make([][]int, len(batches))
	t0 := time.Now()
	for i, b := range batches {
		idx[i] = node.CoalesceBatch(len(b), func(j int) string { return b[j].item })
		for _, j := range idx[i] {
			shardSink += ingest.ShardOf(b[j].item, 1)
		}
	}
	spent := time.Since(t0)
	for i, b := range batches {
		out[i] = make([]update, len(idx[i]))
		for k, j := range idx[i] {
			out[i][k] = b[j]
		}
	}
	return out, spent
}

// shardSink keeps the shard hashes of coalesce from being optimized
// away.
var shardSink int

// wirePass encodes every recorded per-dependent frame with AppendFrame
// and decodes the stream back with a Decoder.
func (l *ledger) wirePass(frames []wire.Frame) (encNs, decNs, bytesPer float64, err error) {
	buf := make([]byte, 0, 1<<20)
	for i := range frames { // warm-up sizes the buffer
		if buf, err = wire.AppendFrame(buf, &frames[i]); err != nil {
			return 0, 0, 0, err
		}
	}
	buf = buf[:0]
	t0 := time.Now()
	for i := range frames {
		if buf, err = wire.AppendFrame(buf, &frames[i]); err != nil {
			return 0, 0, 0, err
		}
	}
	encNs = l.perUpdate(time.Since(t0))
	dec := wire.NewDecoder(bytes.NewReader(buf))
	var f wire.Frame
	t0 = time.Now()
	for range frames {
		if err := dec.Decode(&f); err != nil {
			return 0, 0, 0, fmt.Errorf("ledger: decoding recorded frames: %w", err)
		}
	}
	decNs = l.perUpdate(time.Since(t0))
	return encNs, decNs, float64(len(buf)) / float64(l.updates), nil
}

// walPass group-commits every node's applied batches to its own log, as
// a durable TCP node does per received frame. It returns the time per
// update, the snapshot rotations taken and the bytes left on disk.
func (l *ledger) walPass(rec *replay, opts wal.Options) (ns float64, rotations uint64, size int64, err error) {
	base, err := os.MkdirTemp(l.dir, "ledger-wal-")
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(base)
	logs := make(map[d3t.RepositoryID]*wal.Log)
	defer func() {
		for _, lg := range logs {
			lg.Close()
		}
	}()
	for _, n := range l.overlay.Nodes {
		o := opts
		o.Dir = filepath.Join(base, fmt.Sprintf("repo%03d", n.ID))
		lg, _, err := wal.Open(o.Dir, o)
		if err != nil {
			return 0, 0, 0, err
		}
		logs[n.ID] = lg
	}
	var spent time.Duration
	for _, g := range rec.applied {
		lg := logs[g.id]
		core := rec.cores[g.id]
		t0 := time.Now()
		for _, u := range rec.arena[g.start:g.end] {
			lg.Append(u.item, u.value)
		}
		err := lg.Commit(func() wal.State { return durableState(core) })
		spent += time.Since(t0)
		if err != nil {
			return 0, 0, 0, err
		}
	}
	for id, lg := range logs {
		rotations += lg.Snapshots()
		delete(logs, id)
		if err := lg.Close(); err != nil {
			return 0, 0, 0, err
		}
	}
	err = filepath.Walk(base, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			size += info.Size()
		}
		return err
	})
	return l.perUpdate(spent), rotations, size, err
}

// durableState dumps a core's values and edge filter state for a
// snapshot rotation.
func durableState(c *node.Core) wal.State {
	st := wal.State{Values: make(map[string]float64)}
	c.DumpDurable(
		func(item string, v float64) { st.Values[item] = v },
		func(dep d3t.RepositoryID, item string, last float64, seeded bool) {
			st.Edges = append(st.Edges, wal.Edge{Dep: int64(dep), Item: item, Last: last, Seeded: seeded})
		})
	return st
}

// pipelinePass offers every batch to an ingest pipeline with the given
// shard count, one tick per batch, and returns the time per update from
// the first offer until Close has drained every worker.
func (l *ledger) pipelinePass(shards int) float64 {
	p := ingest.NewPipeline(l.overlay, l.initial, ingest.Config{Shards: shards})
	t0 := time.Now()
	for _, b := range l.batches {
		for _, u := range b {
			p.Offer(u.item, u.value)
		}
		p.Tick()
	}
	p.Close()
	return l.perUpdate(time.Since(t0))
}

// replay drives hand-wired repository cores in fan-out order: a batch
// applies at the source, the copies it forwards are grouped per
// dependent (in first-forward order, as every runtime's flush does), and
// each group applies at its dependent in FIFO order. Per-item edge
// order is therefore the same as in every runtime, so the forward and
// check totals are the reference the runtimes' decisions must equal.
type replay struct {
	cores map[d3t.RepositoryID]*node.Core
	tr    countingTransport

	forwards, checks uint64

	// arena holds the groups of the batch in flight; queue lists them.
	arena []update
	queue []group

	// With record set, every group is kept: applied lists each node's
	// applied groups (arena indexes stay valid because the arena is not
	// reset) and frames the per-dependent frames between nodes.
	record  bool
	applied []group
	frames  []wire.Frame
}

// group is one node's share of a fan-out pass: arena[start:end].
type group struct {
	id         d3t.RepositoryID
	start, end int
}

// countingTransport collects the pass's forwarded copies.
type countingTransport struct{ pend []pending }

type pending struct {
	dep d3t.RepositoryID
	u   update
}

func (t *countingTransport) Now() d3t.Time { return 0 }
func (t *countingTransport) SendToDependent(dep d3t.RepositoryID, item string, v float64, _ bool) bool {
	t.pend = append(t.pend, pending{dep, update{item, v}})
	return true
}
func (t *countingTransport) SendToClient(*node.Session, string, float64, bool) {}

// newReplay builds one core per overlay node, seeded with the initial
// values, observed through tree when it is non-nil.
func newReplay(o *d3t.Overlay, initial map[string]float64, tree *obs.Tree) *replay {
	rp := &replay{cores: make(map[d3t.RepositoryID]*node.Core, len(o.Nodes))}
	for _, n := range o.Nodes {
		c := node.New(n, o.Node, node.Options{})
		if tree != nil {
			c.SetObs(tree.Node(n.ID))
		}
		for item, v := range initial {
			c.Seed(item, v)
		}
		rp.cores[n.ID] = c
	}
	return rp
}

// run applies every (already coalesced) batch in fan-out order.
func (rp *replay) run(batches [][]update) {
	for _, b := range batches {
		if !rp.record {
			rp.arena = rp.arena[:0]
		}
		rp.queue = append(rp.queue[:0], group{d3t.SourceID, len(rp.arena), len(rp.arena) + len(b)})
		rp.arena = append(rp.arena, b...)
		for qi := 0; qi < len(rp.queue); qi++ {
			g := rp.queue[qi]
			core := rp.cores[g.id]
			rp.tr.pend = rp.tr.pend[:0]
			for i := g.start; i < g.end; i++ {
				u := rp.arena[i]
				fw, ck := core.Apply(u.item, u.value, &rp.tr)
				rp.forwards += uint64(fw)
				rp.checks += uint64(ck)
			}
			if rp.record {
				rp.applied = append(rp.applied, g)
			}
			rp.flush()
		}
	}
}

// flush groups the pass's copies per dependent and queues each group.
func (rp *replay) flush() {
	pend := rp.tr.pend
	for i := range pend {
		dep := pend[i].dep
		seen := false
		for j := 0; j < i; j++ {
			if pend[j].dep == dep {
				seen = true
				break
			}
		}
		if seen {
			continue
		}
		start := len(rp.arena)
		for j := i; j < len(pend); j++ {
			if pend[j].dep == dep {
				rp.arena = append(rp.arena, pend[j].u)
			}
		}
		rp.queue = append(rp.queue, group{dep, start, len(rp.arena)})
		if rp.record {
			rp.frames = append(rp.frames, frameOf(rp.arena[start:]))
		}
	}
}

// frameOf builds the frame a TCP node sends for one dependent group: a
// plain update frame for a single copy, a batch frame otherwise.
func frameOf(ups []update) wire.Frame {
	if len(ups) == 1 {
		return wire.Frame{Kind: wire.KindUpdate, Item: ups[0].item, Value: ups[0].value}
	}
	f := wire.Frame{Kind: wire.KindBatch, Ups: make([]wire.Update, len(ups))}
	for i, u := range ups {
		f.Ups[i] = wire.Update{Item: u.item, Value: u.value}
	}
	return f
}
