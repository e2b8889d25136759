package vserve

import (
	"sync"

	"d3t/internal/coherency"
	"d3t/internal/repository"
	"d3t/internal/sim"
)

// parallel fans one delivery out across the client shards on Options.Workers
// goroutines. Shard state is disjoint (each worker touches only its own
// shards' arrays; the fleet-level inputs are read-only for the duration),
// and the per-shard tallies are merged in shard order, so the result is
// identical to the sequential path — the parallelism is an implementation
// detail, not a semantics change.
type parallel struct {
	n          int
	dBuf, fBuf []int
}

func newParallel(n int) *parallel { return &parallel{n: n} }

func (p *parallel) deliver(f *Fleet, repo repository.ID, id uint32, now sim.Time, v float64, cSelf coherency.Requirement) (delivered, filtered int) {
	ns := f.opts.Shards
	if len(p.dBuf) < ns {
		p.dBuf = make([]int, ns)
		p.fBuf = make([]int, ns)
	}
	var wg sync.WaitGroup
	for w := 0; w < p.n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := w; s < ns; s += p.n {
				p.dBuf[s], p.fBuf[s] = f.deliverShard(uint32(s), repo, id, now, v, cSelf)
			}
		}(w)
	}
	wg.Wait()
	for s := 0; s < ns; s++ {
		delivered += p.dBuf[s]
		filtered += p.fBuf[s]
	}
	return delivered, filtered
}
