package main

import (
	"math"
	"math/bits"
	"time"
)

// On the reference host (a 2-vCPU KVM guest on a shared Intel Xeon) the
// same work takes up to twice as long from one second to the next, and a
// whole run can be slowed throughout. The slowdown acts like a busy
// sibling hyperthread: port-bound integer code slows about 1.7× on the
// median segment, a dependent multiply chain not at all, and steal time
// stays near zero. No statistic over one run removes it when it lasts the
// whole run. So every timed segment, and set-up, is scaled by a fixed
// yardstick, refKernel, timed on either side of it: a time metric reads
// wall time × (refKernelCalm ÷ the yardstick's mean time)^sens, the wall
// time the work would have taken with the yardstick at its calm speed.
// Workloads slow less than the yardstick does, each by its own measure,
// so sens is fitted per workload (bench/README.md, "Noise").
//
// refKernel is port-bound integer work: loads, shifts, and/or/xor and
// popcounts over a 32 KiB table, in four independent chains. Of the
// kernels tried, it tracks the workloads' slowdown best. The table fits in
// L1, so the yardstick does not evict the fleet's state between segments.
// Its exact code matters: the same loop over an array pointer, with bounds
// checks left in, slowed only 1.1× where this one slowed 1.6×. Changing it
// changes the scale of every time metric, so parent and change must share
// it, as they do when both run this benchmark.
var refTable = func() []uint64 {
	t := make([]uint64, 4096)
	x := uint64(1)
	for i := range t {
		x = x*6364136223846793005 + 1442695040888963407
		t[i] = x
	}
	return t
}()

// refSink keeps the yardstick's result live.
var refSink uint64

// refPasses sets the yardstick's length: about half a millisecond at
// calm speed on the reference host.
const refPasses = 160

// refKernelCalm is refKernel's calm time on the reference host (go1.24.0
// linux/amd64): about the 5th percentile of 20 000 timings taken between
// benchmark segments over 18 minutes, 501 µs. Its value only sets the
// scale of the time metrics; both sides of a comparison use it.
const refKernelCalm = 500 * time.Microsecond

// refKernel times one run of the yardstick.
func refKernel() time.Duration {
	t0 := time.Now()
	a := refTable
	var s0, s1, s2, s3 uint64
	for r := 0; r < refPasses; r++ {
		for i := 0; i+3 < len(a); i += 4 {
			s0 ^= a[i] & (a[i+1] >> 1)
			s1 += uint64(bits.OnesCount64(a[i+1] ^ s0))
			s2 ^= (a[i+2] | s1) ^ (a[i+3] << 3)
			s3 += uint64(bits.OnesCount64(a[i+3] & s2))
		}
	}
	refSink += s0 + s1 + s2 + s3
	return time.Since(t0)
}

// calmScale is the factor that turns a wall time measured between two
// yardstick timings into the time at the yardstick's calm speed, for work
// whose time grows as the yardstick's to the power sens.
func calmScale(before, after time.Duration, sens float64) float64 {
	return math.Pow(2*float64(refKernelCalm)/float64(before+after), sens)
}
