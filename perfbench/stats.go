package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1); xs
// is sorted in place. It returns 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// cpuTime returns the CPU time the process has used so far, user and
// system, over all its threads. Unlike wall time it leaves out the time
// the host gives the VM's CPUs to other guests (steal): on a shared
// 2-vCPU VM that moved wall time by a quarter between runs minutes
// apart, and CPU time by under a tenth.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// timePer runs fn repeatedly for at least budget (and at least once) and
// returns the mean duration of one call.
func timePer(budget time.Duration, fn func()) time.Duration {
	start := time.Now()
	n := 0
	for n == 0 || time.Since(start) < budget {
		fn()
		n++
	}
	return time.Since(start) / time.Duration(n)
}
