package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync/atomic"
	"time"
)

// quantile returns the q-quantile of xs, interpolating linearly between
// the closest ranks (NaN for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// relDiff is |a-b| relative to the larger magnitude (absolute when both
// are zero).
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Max(math.Abs(a), math.Abs(b)); m > 0 {
		return d / m
	}
	return d
}

// maxRelDiff is the largest elementwise relDiff (+Inf on a length
// mismatch, so a truncated answer can never pass).
func maxRelDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range a {
		worst = math.Max(worst, relDiff(a[i], b[i]))
	}
	return worst
}

// heapObjects is the bytes of heap objects not yet freed (HeapAlloc),
// read from runtime/metrics so that sampling does not stop the world.
// Held-from-the-OS figures (HeapSys, less HeapReleased) also follow the
// scavenger's timing, which made the high-water mark differ by a whole
// solver's arrays between identical runs.
func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler records the high-water mark of heapObjects while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

// startHeapSampler collects garbage (so the timed phase starts from its
// own live set) and samples heapObjects every 20 ms until Stop.
func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.Reset()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	v := heapObjects()
	for p := h.peak.Load(); v > p && !h.peak.CompareAndSwap(p, v); p = h.peak.Load() {
	}
}

// Reset restarts the high-water mark from the current heap.
func (h *heapSampler) Reset() { h.peak.Store(heapObjects()) }

// Peak returns the high-water mark since the last Reset, in MiB.
func (h *heapSampler) Peak() float64 {
	h.observe()
	return float64(h.peak.Load()) / (1 << 20)
}

// Stop ends sampling and returns the high-water mark since the last
// Reset, in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return h.Peak()
}
