package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"d3t"
	ilive "d3t/internal/live"
	inetio "d3t/internal/netio"
	"d3t/internal/repository"
	"d3t/live"
	"d3t/netio"
	"d3t/obs"
)

// liveStream runs the stream workloads on the in-process goroutine
// runtime: one shard, no WAL, no obs.
func liveStream(r *run) error {
	return streamWorkload(r, streamSpec{start: startLive, segments: 8, segmentUpdates: 100_000, path: livePath})
}

// tcpDurable runs them over TCP on loopback, every node with a
// write-ahead log and obs counters.
func tcpDurable(r *run) error {
	return streamWorkload(r, streamSpec{start: startTCP, segments: 2, segmentUpdates: 100_000, path: tcpPath})
}

type liveCluster struct {
	c      *live.Cluster
	ids    []d3t.RepositoryID
	subs   []*live.Session
	staged [][]ilive.Update
	wg     sync.WaitGroup
	closed bool
}

func startLive(_ *run, w *streamWorld, _ int, rc *receiver) (cluster, error) {
	t0 := time.Now()
	lc := &liveCluster{c: live.NewCluster(w.overlay, live.Options{Shards: 1})}
	for _, n := range w.overlay.Nodes {
		lc.ids = append(lc.ids, n.ID)
	}
	lc.c.Start()
	for item, v := range w.initial {
		lc.c.Seed(item, v)
	}
	t1 := time.Now()
	for i, leaf := range w.leaves {
		s, err := lc.c.Subscribe(fmt.Sprintf("session%d", i), wants(leaf), leaf.ID)
		if err != nil {
			lc.close()
			return nil, err
		}
		lc.subs = append(lc.subs, s)
		lc.wg.Add(1)
		go func() {
			defer lc.wg.Done()
			for u := range s.Updates() {
				rc.consume(u.Item, u.Value, u.Resync, time.Now())
			}
		}()
	}
	t2 := time.Now()
	w.spans["runtime.start_ms"] = ms(t1.Sub(t0))
	w.spans["serve.place_ms"] += ms(t2.Sub(t1))
	return lc, nil
}

func (lc *liveCluster) stage(batches [][]update, lift float64) {
	lc.staged = restage(lc.staged, batches, func(u update) ilive.Update {
		return ilive.Update{Item: u.item, Value: u.value + lift}
	})
}

// restage converts batches into staged, reusing its slices: the runtimes
// copy what they publish, so buffers can be refilled for every segment
// without adding the benchmark's own garbage to the measurement.
func restage[U any](staged [][]U, batches [][]update, conv func(update) U) [][]U {
	for len(staged) < len(batches) {
		staged = append(staged, nil)
	}
	staged = staged[:len(batches)]
	for i, b := range batches {
		ups := staged[i][:0]
		for _, u := range b {
			ups = append(ups, conv(u))
		}
		staged[i] = ups
	}
	return staged
}

func (lc *liveCluster) publish(i int) error {
	if !lc.c.PublishBatch(lc.staged[i]) {
		return fmt.Errorf("live: cluster stopped")
	}
	return nil
}

func (lc *liveCluster) value(id d3t.RepositoryID, item string) (float64, bool) {
	return lc.c.Value(id, item)
}

func (lc *liveCluster) forwarded() uint64 {
	var n uint64
	for _, id := range lc.ids {
		for _, d := range lc.c.Decisions(id) {
			n += d.Forwarded
		}
	}
	return n
}

func (lc *liveCluster) sessions() (delivered, filtered, dropped uint64) {
	for _, s := range lc.subs {
		delivered += s.Delivered()
		filtered += s.Filtered()
		dropped += s.Dropped()
	}
	return delivered, filtered, dropped
}

func (lc *liveCluster) durabilityErr() error { return lc.c.DurabilityErr() }

func (lc *liveCluster) close() {
	if lc.closed {
		return
	}
	lc.closed = true
	for _, s := range lc.subs {
		s.Close()
	}
	lc.wg.Wait()
	lc.c.Stop()
}

// tcpCluster is the overlay served by netio nodes on loopback, wired the
// way netio.StartClusterWith wires them, plus a write-ahead log per node
// and one obs tree.
type tcpCluster struct {
	nodes    []*netio.Node
	walDir   string
	tree     *obs.Tree
	clients  []*netio.Client
	received []uint64 // per client, written by its consumer
	staged   [][]inetio.Update
	wg       sync.WaitGroup
	closed   bool
}

func startTCP(r *run, w *streamWorld, round int, rc *receiver) (cluster, error) {
	t0 := time.Now()
	tc := &tcpCluster{tree: obs.NewTree(), walDir: filepath.Join(r.dir, fmt.Sprintf("wal-round%d", round))}
	// fsync would time the checkout's disk, not the WAL: the log runs as
	// it would on a RAM-backed filesystem, where fsync costs nothing.
	durable := &d3t.WALOptions{Dir: tc.walDir, Fsync: d3t.WALFsyncNever}
	if err := tc.startNodes(w.overlay, w.initial, durable); err != nil {
		tc.close()
		return nil, err
	}
	t1 := time.Now()
	tc.received = make([]uint64, len(w.leaves))
	for i, leaf := range w.leaves {
		cl, err := netio.Subscribe(fmt.Sprintf("session%d", i), wants(leaf), tc.nodes[leaf.ID].Addr())
		if err != nil {
			tc.close()
			return nil, err
		}
		tc.clients = append(tc.clients, cl)
		tc.wg.Add(1)
		go func() {
			defer tc.wg.Done()
			for u := range cl.Updates() {
				rc.consume(u.Item, u.Value, u.Resync, time.Now())
				tc.received[i]++
			}
		}()
	}
	t2 := time.Now()
	w.spans["runtime.start_ms"] = ms(t1.Sub(t0))
	w.spans["serve.place_ms"] += ms(t2.Sub(t1))
	return tc, nil
}

// startNodes starts every node in level order (parents first), each
// seeded with the initial values of what it serves, and waits until
// every dependent has dialed in.
func (tc *tcpCluster) startNodes(o *d3t.Overlay, initial map[string]float64, durable *d3t.WALOptions) error {
	order := append([]*d3t.Repository(nil), o.Nodes...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].Level < order[j].Level })
	tc.nodes = make([]*netio.Node, len(o.Nodes))
	for _, rp := range order {
		children := make(map[d3t.RepositoryID]map[string]d3t.Requirement)
		for item, deps := range rp.Dependents {
			for _, dep := range deps {
				c, ok := o.Node(dep).ServingTolerance(item)
				if !ok {
					return fmt.Errorf("tcp: dependent %v lacks a tolerance for %s", dep, item)
				}
				if children[dep] == nil {
					children[dep] = make(map[string]d3t.Requirement)
				}
				children[dep][item] = c
			}
		}
		var parents []string
		for _, pid := range parentsOf(rp) {
			if tc.nodes[pid] == nil {
				return fmt.Errorf("tcp: parent %v of %v not started", pid, rp.ID)
			}
			parents = append(parents, tc.nodes[pid].Addr())
		}
		seed := make(map[string]float64)
		for item, v := range initial {
			if _, ok := rp.ServingTolerance(item); ok {
				seed[item] = v
			}
		}
		n, err := netio.Start(netio.NodeConfig{
			ID:         rp.ID,
			Serving:    rp.Serving,
			Children:   children,
			Parents:    parents,
			Initial:    seed,
			Obs:        tc.tree.Node(rp.ID),
			Durability: durable,
		})
		if err != nil {
			return err
		}
		tc.nodes[rp.ID] = n
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, n := range tc.nodes {
		for n.ConnectedChildren() < n.ExpectedChildren() {
			if time.Now().After(deadline) {
				return fmt.Errorf("tcp: %v has %d of %d children connected after 10s",
					n.ID(), n.ConnectedChildren(), n.ExpectedChildren())
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	return nil
}

// parentsOf lists a repository's distinct parents in id order, falling
// back to its liaison when it needs nothing.
func parentsOf(rp *d3t.Repository) []d3t.RepositoryID {
	if rp.IsSource() {
		return nil
	}
	set := make(map[d3t.RepositoryID]bool)
	for _, pid := range rp.Parents {
		set[pid] = true
	}
	if len(set) == 0 && rp.Liaison != repository.NoID {
		set[rp.Liaison] = true
	}
	out := make([]d3t.RepositoryID, 0, len(set))
	for pid := range set {
		out = append(out, pid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (tc *tcpCluster) stage(batches [][]update, lift float64) {
	tc.staged = restage(tc.staged, batches, func(u update) inetio.Update {
		return inetio.Update{Item: u.item, Value: u.value + lift}
	})
}

func (tc *tcpCluster) publish(i int) error { return tc.nodes[d3t.SourceID].PublishBatch(tc.staged[i]) }

func (tc *tcpCluster) value(id d3t.RepositoryID, item string) (float64, bool) {
	return tc.nodes[id].Value(item)
}

func (tc *tcpCluster) forwarded() uint64 {
	var n uint64
	for _, node := range tc.nodes {
		for _, d := range node.Decisions() {
			n += d.Forwarded
		}
	}
	return n
}

// sessions takes delivery decisions and filtered counts from the serving
// nodes' obs counters. A client counts every frame it reads and hands it
// to the Updates channel unless the channel is full; once the frame
// counts stop moving, what the consumers did not receive was dropped.
func (tc *tcpCluster) sessions() (delivered, filtered, dropped uint64) {
	for _, n := range tc.tree.Snapshot(0).Nodes {
		delivered += n.Counters.Delivered
		filtered += n.Counters.Filtered
	}
	var read uint64
	for stable := 0; stable < 3; {
		time.Sleep(10 * time.Millisecond)
		var now uint64
		for _, cl := range tc.clients {
			now += cl.Delivered()
		}
		if now == read {
			stable++
		} else {
			read, stable = now, 0
		}
	}
	tc.closeClients()
	var got uint64
	for _, n := range tc.received {
		got += n
	}
	if read > got {
		dropped = read - got
	}
	return delivered, filtered, dropped
}

func (tc *tcpCluster) durabilityErr() error {
	for _, n := range tc.nodes {
		if err := n.DurabilityErr(); err != nil {
			return err
		}
	}
	return nil
}

func (tc *tcpCluster) closeClients() {
	for _, cl := range tc.clients {
		cl.Close()
	}
	tc.clients = nil
	tc.wg.Wait()
}

func (tc *tcpCluster) close() {
	if tc.closed {
		return
	}
	tc.closed = true
	tc.closeClients()
	for _, n := range tc.nodes {
		if n != nil {
			n.Close()
		}
	}
	os.RemoveAll(tc.walDir)
}
