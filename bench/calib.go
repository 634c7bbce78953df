package main

import "time"

// The sandbox this benchmark runs in shares its host: its speed drifts by
// 10-30% over tens of seconds to minutes, for every process alike (PERF.md,
// "Noise"), and no statistic taken inside a run removes a drift slower than
// the run. So each run times a fixed reference kernel — the benchmark's own
// code, no call into the program — in short windows spread over the
// measured phase, between rounds, while client 0 has no operation in
// flight, and reports its timing metrics at reference speed: multiplied by
// refNominalMs / (the kernel's median time in this run). A slower or faster
// program does not move the kernel; a slower or faster machine moves both.

const (
	// refNominalMs is the kernel's median time on this sandbox when quiet.
	// It fixes the unit: at that speed a reported millisecond is a measured
	// one.
	refNominalMs = 1.0
	// refWindow is the number of kernel iterations per window, and refEvery
	// the least time between windows: about 2% of the phase.
	refWindow = 16
	refEvery  = time.Second
)

// The kernel's state is static, not heap: it must not count as retained
// heap, and a timed iteration must not allocate, so that the collector
// (whose pace depends on the program's heap) stays out of the measurement.
var (
	refTable [1 << 20]uint32  // 4 MB, hit at random: the program's map lookups
	refBuf   [1 << 19]float64 // 4 MB, streamed: the program's column scans
	refState uint64           = 88172645463325252
	refSink  float64
)

// refIterate runs the kernel once and returns its wall time in ms.
func refIterate() float64 {
	t0 := time.Now()
	x := refState
	for i := 0; i < 1<<15; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		refTable[x&(1<<20-1)] += uint32(i)
	}
	refState = x
	s := 0.0
	for i, v := range refBuf {
		v = v*0.5 + float64(i&7)
		refBuf[i] = v
		s += v
	}
	refSink += s
	return ms(time.Since(t0))
}

// refSample runs one window of the kernel.
func refSample(into []float64) []float64 {
	for i := 0; i < refWindow; i++ {
		into = append(into, refIterate())
	}
	return into
}

// speedFactor turns the kernel's timings into the factor that carries a
// measured time to reference speed (below 1 on a machine running slow).
func speedFactor(ref []float64) float64 {
	if m := median(ref); m > 0 {
		return refNominalMs / m
	}
	return 1
}
