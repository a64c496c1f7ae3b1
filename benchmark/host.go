package main

import (
	"sync"
	"time"
)

// The host probe. The machines this benchmark runs on are shared: for
// minutes at a time neighbours slow every memory-touching instruction down
// by a quarter to a half, and then stop. Everything the program under test
// does slows down with them, by about the same factor, so two runs of the
// same code can differ by a third. The probe is a fixed piece of work of the
// harness's own — no code of the program — with the same appetite for cache
// and memory bandwidth as the workloads. It is timed between the slices of a
// measured phase, and tells how fast the host was while a slice ran.

// probeSide is the side of the probe's three square float64 matrices: 72 KB
// each, together a little more than a core's private cache holds.
const probeSide = 96

// hostProbe owns the operands of one probe goroutine.
type hostProbe struct{ a, b, c []float64 }

func newHostProbe() *hostProbe {
	p := &hostProbe{
		a: make([]float64, probeSide*probeSide),
		b: make([]float64, probeSide*probeSide),
		c: make([]float64, probeSide*probeSide),
	}
	for i := range p.a {
		p.a[i], p.b[i] = float64(i%7)+0.5, float64(i%5)+0.25
	}
	return p
}

// run does the probe's work once: c += a·b, row by row.
func (p *hostProbe) run() {
	const n = probeSide
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := p.a[i*n+k]
			row := p.b[k*n : k*n+n]
			out := p.c[i*n : i*n+n]
			for j, bkj := range row {
				out[j] += aik * bkj
			}
		}
	}
}

// hostProbes times the probe on `workers` goroutines at once — as many as
// the workload keeps busy. Each goroutine runs it three times and keeps its
// median; measure returns the mean over the goroutines.
type hostProbes []*hostProbe

func newHostProbes(workers int) hostProbes {
	ps := make(hostProbes, workers)
	for i := range ps {
		ps[i] = newHostProbe()
	}
	return ps
}

func (ps hostProbes) measure() time.Duration {
	times := make([]time.Duration, len(ps))
	var wg sync.WaitGroup
	for i, p := range ps {
		wg.Add(1)
		go func(i int, p *hostProbe) {
			defer wg.Done()
			var runs [3]float64
			for r := range runs {
				t0 := time.Now()
				p.run()
				runs[r] = float64(time.Since(t0))
			}
			times[i] = time.Duration(median(runs[:]))
		}(i, p)
	}
	wg.Wait()
	var sum time.Duration
	for _, d := range times {
		sum += d
	}
	return sum / time.Duration(len(ps))
}

// probeReference is what one probe takes on the reference sandbox (2 vCPUs of
// a 2.1 GHz Xeon) when nothing disturbs it. Times reported "on an undisturbed
// host" are measured times multiplied by probeReference ÷ the probe time
// measured around them: on that sandbox they are its milliseconds with the
// neighbours taken out; elsewhere they are in the reference sandbox's
// milliseconds, and compare between commits all the same.
const probeReference = 420 * time.Microsecond

// probeWindow is how many probes on either side of an interval decide its
// host factor. One probe is a noisy reading (±15 %); the host's moods last
// seconds, and six probes around a 50–100 ms interval span about a third of
// one.
const probeWindow = 3

// hostFactors returns, for each interval between consecutive probes, the
// factor that takes a time measured in it to an undisturbed host: the
// reference over the median of the probes around the interval.
func hostFactors(probes []time.Duration) []float64 {
	factors := make([]float64, len(probes)-1)
	for i := range factors {
		lo, hi := max(0, i+1-probeWindow), min(len(probes), i+1+probeWindow)
		window := make([]float64, 0, 2*probeWindow)
		for _, p := range probes[lo:hi] {
			window = append(window, float64(p))
		}
		factors[i] = float64(probeReference) / median(window)
	}
	return factors
}

// timedSetup runs a set-up between two groups of three probes and returns its
// length in seconds on an undisturbed host.
func timedSetup[T any](probes hostProbes, setup func() (T, error)) (T, float64, error) {
	var around []float64
	probe := func() {
		for i := 0; i < probeWindow; i++ {
			around = append(around, float64(probes.measure()))
		}
	}
	probe()
	t0 := time.Now()
	env, err := setup()
	wall := time.Since(t0)
	probe()
	return env, wall.Seconds() * float64(probeReference) / median(around), err
}
