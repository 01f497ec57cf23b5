package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// quantile returns the q-quantile of sorted samples, interpolating linearly
// between order statistics.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tail returns the q-quantile of xs and how many samples lie strictly beyond
// it; ok is false when fewer than minBeyond do, so the value rests on too
// few samples to report.
func tail(xs []float64, q float64) (v float64, beyond int, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	v = quantile(s, q)
	for _, x := range s {
		if x > v {
			beyond++
		}
	}
	return v, beyond, beyond >= minBeyond
}

// runtimeSample holds the Go runtime counters read around requests.
type runtimeSample struct {
	gcCycles   uint64
	allocBytes uint64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return runtimeSample{gcCycles: s[0].Value.Uint64(), allocBytes: s[1].Value.Uint64()}
}

func heapNow() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler samples the Go heap in use (live plus not-yet-swept objects)
// every heapPeriod and keeps the peak of each heapInterval. The median of
// those peaks is the run's heap_peak_mb: a maximum over the whole window
// would rest on its single worst instant.
type heapSampler struct {
	stop  chan struct{}
	done  sync.WaitGroup
	peaks []float64 // bytes, one per completed interval
	top   uint64    // bytes, the highest sample
}

const (
	heapPeriod   = 2 * time.Millisecond
	heapInterval = time.Second
)

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(heapPeriod)
		defer t.Stop()
		var peak uint64
		begin := time.Now()
		for {
			select {
			case <-h.stop:
				peak = max(peak, heapNow())
				h.top = max(h.top, peak)
				if len(h.peaks) == 0 {
					h.peaks = append(h.peaks, float64(peak))
				}
				return
			case now := <-t.C:
				peak = max(peak, heapNow())
				h.top = max(h.top, peak)
				if now.Sub(begin) >= heapInterval {
					h.peaks = append(h.peaks, float64(peak))
					peak, begin = 0, now
				}
			}
		}
	}()
	return h
}

// close stops the sampler and returns the per-interval peaks and the
// highest sample, in MB.
func (h *heapSampler) close() (peaks []float64, top float64) {
	close(h.stop)
	h.done.Wait()
	peaks = make([]float64, len(h.peaks))
	for i, p := range h.peaks {
		peaks[i] = p / (1 << 20)
	}
	return peaks, float64(h.top) / (1 << 20)
}
