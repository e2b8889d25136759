package main

import (
	"fmt"
	"runtime"
	"syscall"
	"unsafe"
)

// The machine's speed drifts. On 2 shared vCPUs the simulator's CPU time
// for the same work moved by up to a factor of 1.8 from one 10-second
// stretch to the next, with steal and system time near zero: other
// tenants' load on the host's caches and memory slows user code itself,
// and CPU time cannot leave that out. Throughput and set-up time are
// therefore scaled by a reference workload measured throughout the run
// (between the simulator's ticks; after each closed-loop segment of the
// stream workloads): random reads from a table far larger than the
// caches, which slow down with the same contention the program's map
// and heap accesses do. The reference is independent of the program
// under test, so a change to the program moves the scaled figures as
// much as the unscaled ones.

const (
	// calibrationWords is the reference table's size: 64 MiB of uint64,
	// beyond any cache the machine has.
	calibrationWords = 1 << 23
	// calibrationReads is the number of random reads one calibration
	// makes (about 3 ms).
	calibrationReads = 1 << 17
	// calibrationRefUs is a calibration's thread CPU time, in µs, at
	// which a run's figures are reported as measured (about the median
	// over ten runs on the 2-vCPU Intel Xeon the bounds were set on); a
	// run whose calibrations take longer has its times scaled down and
	// its rates up by the ratio.
	calibrationRefUs = 3000
)

// calibrator holds the reference table. The table is mapped outside the
// Go heap, so it neither changes when the garbage collector runs nor
// adds to what it scans; its resident size is known, so peak resident
// sets can leave it out.
type calibrator struct {
	table []uint64
	// residentMiB is the table's resident size.
	residentMiB float64
	// us holds every calibration's thread CPU time in µs.
	us   []float64
	sink uint64
}

// newCalibrator maps and fills the reference table.
func newCalibrator() (*calibrator, error) {
	b, err := syscall.Mmap(-1, 0, calibrationWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration table: %w", err)
	}
	c := &calibrator{
		table:       unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), calibrationWords),
		residentMiB: float64(len(b)) / (1 << 20),
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range c.table {
		x = xorshift(x)
		c.table[i] = x
	}
	return c, nil
}

// close unmaps the table.
func (c *calibrator) close() {
	syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(&c.table[0])), len(c.table)*8))
	c.table = nil
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// calibrate makes calibrationReads random reads from the table and
// records the thread CPU time they took.
func (c *calibrator) calibrate() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPUNow()
	x, s := uint64(len(c.us))+1, uint64(0)
	for i := 0; i < calibrationReads; i++ {
		x = xorshift(x)
		s += c.table[x&(calibrationWords-1)]
	}
	c.us = append(c.us, us(threadCPUNow()-t0))
	c.sink += s
}

// factor is how much slower than the reference the run's machine read
// the table: the median calibration over calibrationRefUs. It reports
// the calibrations on detail lines.
func (c *calibrator) factor(r *run) float64 {
	f := median(c.us) / calibrationRefUs
	r.set("calibration_us", median(c.us))
	r.set("speed_factor", f)
	r.note("calibrations: %d", len(c.us))
	return f
}
