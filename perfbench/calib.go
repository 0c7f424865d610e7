package main

import (
	"crypto/sha256"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// calibKernel is fixed work of the kinds the program spends its time on:
// hashing, map lookups, sorting and dense floating-point loops. It is the
// benchmark's own code and allocates nothing, so neither a change to the
// program nor a garbage collection can change what it costs.
type calibKernel struct {
	m    []float64
	x    []float64
	buf  []byte
	keys []string
	idx  map[string]int
	ints []int
}

func newCalibKernel() *calibKernel {
	k := &calibKernel{m: make([]float64, 48*48), x: make([]float64, 48), buf: make([]byte, 2048), idx: map[string]int{}, ints: make([]int, 256)}
	for i := range k.m {
		k.m[i] = math.Sin(float64(i))
	}
	for i := range k.buf {
		k.buf[i] = byte(i * 7)
	}
	for i := 0; i < 64; i++ {
		key := "key-" + strconv.Itoa(i)
		k.keys = append(k.keys, key)
		k.idx[key] = i
	}
	return k
}

// run does iters rounds of the work and returns a value that depends on
// all of it.
func (k *calibKernel) run(iters int) float64 {
	var sink float64
	for it := 0; it < iters; it++ {
		h := sha256.Sum256(k.buf)
		sink += float64(h[it%32])
		for r := 0; r < 48; r++ {
			s := 0.0
			for c := 0; c < 48; c++ {
				s += k.m[r*48+c] * k.x[c]
			}
			k.x[r] = s*1e-3 + 1
		}
		for _, key := range k.keys {
			sink += float64(k.idx[key])
		}
		for i := range k.ints {
			k.ints[i] = (i*7919 + it) % 1021
		}
		sort.Ints(k.ints)
		sink += k.x[3] + float64(k.ints[17])
	}
	return sink
}

// calibRefMS is the calibration burst's time on the reference machine, a
// 2-CPU Xeon container in a quiet hour. Times are reported at that speed;
// see speedometer.
const calibRefMS = 7.5

const calibIters = 1200

// calibBurst runs the kernel on every CPU at once and returns the median
// time one copy took, in ms.
func calibBurst() float64 {
	n := runtime.NumCPU()
	var wg sync.WaitGroup
	durs := make([]float64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := newCalibKernel()
			start := time.Now()
			if math.IsNaN(k.run(calibIters)) {
				panic("calibration kernel produced NaN")
			}
			durs[i] = ms(time.Since(start))
		}(i)
	}
	wg.Wait()
	return median(durs)
}

// speedometer tracks how fast the machine runs during a run. The hosts
// this benchmark runs on change speed by 20% and more over seconds, and
// by 2× over an hour, as other tenants come and go. Bursts of the
// calibration kernel measure that speed, and every piece of work the
// benchmark times (a set-up, a solve, a closed-loop window, an open-loop
// request) is read at the reference speed by the faster of the bursts
// just before and just after it. So each is read at the speed the host
// had while it ran.
//
// The faster of the two, never their mean, because anything that slows a
// burst would otherwise shrink the reported times: the program can still
// work while a burst runs (garbage collection after a heavy phase, a
// fleet's probe and gossip loops, a cold solve beside an open loop), and
// a neighbour on the host can slow a single burst.
type speedometer struct {
	bursts []float64
}

// probe takes one calibration burst and returns its time in ms.
func (s *speedometer) probe() float64 {
	b := calibBurst()
	s.bursts = append(s.bursts, b)
	return b
}

// quiet finishes any garbage collection the program has left, then takes
// n bursts and returns the fastest, in ms.
func (s *speedometer) quiet(n int) float64 {
	runtime.GC()
	best := s.probe()
	for i := 1; i < n; i++ {
		best = min(best, s.probe())
	}
	return best
}

// medianMS is the run's median burst, in ms.
func (s *speedometer) medianMS() float64 {
	return median(append([]float64(nil), s.bursts...))
}

// between is the factor for one piece of work timed between bursts a and
// b (in ms): multiply its time by it, divide a rate by it.
func between(a, b float64) float64 {
	return calibRefMS / min(a, b)
}

// during takes a burst every period until stop is closed, recording in
// ends when each burst ended (as time since start), and returns when the
// last burst has ended.
func (s *speedometer) during(start time.Time, period time.Duration, stop <-chan struct{}) (ends []time.Duration) {
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return ends
		case <-tick.C:
			s.probe()
			ends = append(ends, time.Since(start))
		}
	}
}

// around is the factor for work from from to to (times since the start of
// during), read by the faster of the last burst that ended before it and
// the first that ended after it.
func (s *speedometer) around(ends []time.Duration, from, to time.Duration) float64 {
	next := sort.Search(len(ends), func(i int) bool { return ends[i] > to })
	prev := sort.Search(len(ends), func(i int) bool { return ends[i] > from }) - 1
	next, prev = min(next, len(ends)-1), max(prev, 0)
	return between(s.bursts[prev], s.bursts[next])
}
