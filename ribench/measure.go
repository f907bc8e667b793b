package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// passStats is what one timed pass of a workload cost, read from
// outside the program: wall and process CPU time, the peak heap in use
// while it ran, and the allocation and GC activity it caused.
type passStats struct {
	wall, cpu  time.Duration
	peakHeap   uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

// timePass runs fn as one timed pass. The heap is collected first, so
// every pass starts from the same state and its peak heap is its own.
func timePass(fn func() error) (passStats, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sampler := startHeapSampler()
	cpu0 := cpuTime()
	start := time.Now()
	err := fn()
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	peak := sampler.stop()
	runtime.ReadMemStats(&after)
	return passStats{
		wall:       wall,
		cpu:        cpu,
		peakHeap:   peak,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcCycles:   after.NumGC - before.NumGC,
		gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}, err
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error()) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapObjects is the runtime metric for heap memory occupied by
// objects, live or not yet swept: the heap in use.
const heapObjects = "/memory/classes/heap/objects:bytes"

// heapSampler polls the heap in use every millisecond and keeps the
// peak, so the figure is the pass's high-water mark rather than
// whatever the heap held when the pass ended.
type heapSampler struct {
	quit chan struct{}
	peak chan uint64
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{quit: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: heapObjects}}
		var peak uint64
		read := func() {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
		}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			read()
			select {
			case <-s.quit:
				read()
				s.peak <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak; the sampler has exited when
// it returns.
func (s *heapSampler) stop() uint64 {
	close(s.quit)
	return <-s.peak
}

// tracer keeps one traced pass's layer spans in memory. The layer calls
// a pass makes are sequential, so a layer's time is the sum of its
// spans and their sum is the part of the pass the layers account for.
// A nil tracer records nothing: untraced passes pay one nil check per
// layer call.
type tracer struct {
	spans []span
}

type span struct {
	layer string
	d     time.Duration
}

// span runs fn as one call into layer.
func (t *tracer) span(layer string, fn func() error) error {
	if t == nil {
		return fn()
	}
	start := time.Now()
	err := fn()
	t.spans = append(t.spans, span{layer: layer, d: time.Since(start)})
	return err
}

// seconds is the summed span time of layer.
func (t *tracer) seconds(layer string) float64 {
	var d time.Duration
	for _, s := range t.spans {
		if s.layer == layer {
			d += s.d
		}
	}
	return d.Seconds()
}

// covered is the summed time of every span.
func (t *tracer) covered() time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		d += s.d
	}
	return d
}

// median is the middle of xs (the mean of the middle two for an even
// count); xs is left unchanged.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// medianOf is the median of f over the passes.
func medianOf(passes []passStats, f func(passStats) float64) float64 {
	xs := make([]float64, len(passes))
	for i, p := range passes {
		xs[i] = f(p)
	}
	return median(xs)
}
