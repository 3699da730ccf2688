package main

import (
	"sort"
	"sync"
	"time"
)

// refKernelSeconds is what the reference kernel takes on the machine
// the committed baseline was measured on (2 cores) when nothing else
// runs. Reported times are scaled to it.
const refKernelSeconds = 0.0200

// kernelSize is how many entries one kernel pass inserts, sorts and
// looks up: a few megabytes of randomly accessed memory per core, which
// is what makes the kernel feel a neighbour's cache and memory traffic
// the way the programs under test do.
const kernelSize = 64_000

// kernelState is one core's preallocated working set. The kernel
// allocates next to nothing while it runs: garbage in the harness would
// be collected while a child process is being timed.
type kernelState struct {
	index map[uint64]uint32
	keys  []uint64
	vals  []byte
}

var kernelStates []*kernelState

// kernelSink keeps the compiler from discarding the kernel's work.
var kernelSink uint64

// kernel is a fixed piece of work with the memory behaviour of the
// programs under test: map inserts and lookups, a sort, scattered reads.
// It belongs to the harness, so no change to the programs can move it.
func (k *kernelState) run() uint64 {
	clear(k.index)
	k.keys = k.keys[:0]
	x := uint64(88172645463325252)
	for i := uint32(0); i < kernelSize; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.index[x] = i
		k.keys = append(k.keys, x)
	}
	sort.Slice(k.keys, func(i, j int) bool { return k.keys[i] < k.keys[j] })
	var sum uint64
	for _, key := range k.keys {
		at := k.index[key] * 64
		k.vals[at]++
		sum += uint64(k.vals[at]) + key&1
	}
	return sum
}

// calibrate times the kernel running on every core at once. The shared
// machines this benchmark runs on change speed by tens of percent for
// minutes at a time (other tenants; the guest sees no steal time), which
// no amount of repetition inside one run averages away. The kernel's
// time measures the machine's speed at this moment; every timed sample
// is divided by the calibration taken just before it, and the medians of
// those ratios — scaled by refKernelSeconds back to seconds — are what
// the run reports. README.md, "Speed-normalised times", has the
// measurements behind this.
func calibrate(nproc int) float64 {
	for len(kernelStates) < nproc {
		kernelStates = append(kernelStates, &kernelState{
			index: make(map[uint64]uint32, kernelSize),
			keys:  make([]uint64, 0, kernelSize),
			vals:  make([]byte, kernelSize*64),
		})
	}
	var wg sync.WaitGroup
	sums := make([]uint64, nproc)
	start := time.Now()
	for i := 0; i < nproc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[i] = kernelStates[i].run()
		}()
	}
	wg.Wait()
	took := time.Since(start).Seconds()
	for _, s := range sums {
		kernelSink += s
	}
	return took
}

// timed is one measured duration (or any quantity proportional to
// one) with the calibration taken just before it.
type timed struct {
	raw    float64
	kernel float64 // seconds
}

// series is a metric's samples within one run.
type series []timed

// median is the median sample after scaling each to the reference
// machine speed by its own calibration.
func (s series) median() float64 {
	norm := make([]float64, len(s))
	for i, t := range s {
		norm[i] = t.raw * refKernelSeconds / t.kernel
	}
	return median(norm)
}

// raw is the median as measured, for per-layer reporting.
func (s series) raw() float64 {
	raw := make([]float64, len(s))
	for i, t := range s {
		raw[i] = t.raw
	}
	return median(raw)
}

// kernel is the median calibration of the series.
func (s series) kernel() float64 {
	k := make([]float64, len(s))
	for i, t := range s {
		k[i] = t.kernel
	}
	return median(k)
}
