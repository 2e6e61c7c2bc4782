package main

import (
	"runtime"
	"sync"
)

// The host-speed probe. On a shared host the speed of the machine itself
// drifts: on the 2-vCPU Xeon host the benchmark was defined on, the same
// replay ran anywhere from 200k to 345k references per second over half
// an hour, in both wall and CPU time, and the probe's mean time moved by
// as much as 50% between runs a minute apart. A run therefore interleaves
// a fixed probe with its units, spending probeShare of the units' time on
// it, and reports throughput scaled to a nominal host, one on which the
// probe takes probeNominal seconds:
//
//	ops_per_s = total ops / total unit seconds × mean(probe seconds) / probeNominal
//
// Totals and the mean, rather than medians, because the host's speed
// swings within a unit: summing integrates the swings the probes sample.
// On that host the median unit scaled by the median probe spread up to
// twice as wide over the same runs.
//
// The probe is the benchmark's own code, not the program's, so a change
// to the program moves it only through the heap it leaves live, which
// sets how often the probe's collector runs. Its instruction mix follows
// the simulator's profile — hash-map churn over a 64k-key table, a small
// binary heap, and short-lived allocations that keep the collector busy —
// because a probe that only does arithmetic, or only walks a buffer, did
// not track the drift. The raw figures are printed beside the normalized
// ones.
const (
	probeIters   = 400000
	probeRing    = 8192 // live allocations the probe keeps
	probeKeys    = 1 << 16
	probeHeapCap = 64
)

// probeNominal is the probe's typical time, in seconds, on the host the
// benchmark was defined on (2-vCPU Intel Xeon, Go 1.24), indexed by the
// number of goroutines running it.
var probeNominal = [...]float64{1: 0.085, 2: 0.105}

var probeSink uint64

// probe runs par copies of the probe at once, one per goroutine, and
// returns the wall time they took. A collection first leaves the heap as
// the program's live data alone.
func probe(par int) float64 {
	runtime.GC()
	sums := make([]uint64, par)
	t0 := nanotime()
	var wg sync.WaitGroup
	for i := range sums {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sums[i] = probeWork(uint64(i) + 0x9e3779b97f4a7c15)
		}(i)
	}
	wg.Wait()
	secs := float64(nanotime()-t0) / 1e9
	for _, s := range sums {
		probeSink += s
	}
	return secs
}

func probeWork(x uint64) uint64 {
	m := make(map[uint64]uint64)
	var heap [probeHeapCap]uint64
	n := 0
	keep := make([][]byte, probeRing)
	var sum uint64
	for i := 0; i < probeIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m[x%probeKeys] += x
		if k := (x >> 20) % probeKeys; m[k] != 0 {
			sum += m[k]
			delete(m, k)
		}
		if n < len(heap) {
			heap[n] = x
			n++
			for c := n - 1; c > 0 && heap[(c-1)/2] > heap[c]; c = (c - 1) / 2 {
				heap[(c-1)/2], heap[c] = heap[c], heap[(c-1)/2]
			}
		} else {
			sum += heap[0]
			heap[0] = x
			for c := 0; ; {
				l := 2*c + 1
				if l >= n {
					break
				}
				if l+1 < n && heap[l+1] < heap[l] {
					l++
				}
				if heap[c] <= heap[l] {
					break
				}
				heap[c], heap[l] = heap[l], heap[c]
				c = l
			}
		}
		if i%2 == 0 {
			b := make([]byte, 96)
			b[0] = byte(x)
			keep[x%probeRing] = b
		}
	}
	return sum
}
