package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// rtStats are the Go runtime's figures for a stretch of a process's life.
type rtStats struct {
	GCPauseMs  float64 `json:"gc_pause_ms"`
	HeapPeakMB float64 `json:"heap_peak_mb"`
	AllocMB    float64 `json:"alloc_mb"`
}

// rtSampler tracks the live heap's peak by sampling it every few
// milliseconds, and the GC pause and allocation totals from start to finish.
type rtSampler struct {
	before runtime.MemStats
	stop   chan struct{}
	wg     sync.WaitGroup
	peak   uint64 // written by the sampling goroutine, read after wg.Wait
}

const heapSamplePeriod = 20 * time.Millisecond

func startRuntimeSampler() *rtSampler {
	s := &rtSampler{stop: make(chan struct{})}
	runtime.ReadMemStats(&s.before)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(heapSamplePeriod)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > s.peak {
				s.peak = v
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *rtSampler) finish() rtStats {
	close(s.stop)
	s.wg.Wait()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return rtStats{
		GCPauseMs:  float64(after.PauseTotalNs-s.before.PauseTotalNs) / 1e6,
		HeapPeakMB: float64(s.peak) / (1 << 20),
		AllocMB:    float64(after.TotalAlloc-s.before.TotalAlloc) / (1 << 20),
	}
}

func (r rtStats) report(out *outcome) {
	out.set("go.gc_pause_ms", "ms", r.GCPauseMs)
	out.set("go.heap_peak_mb", "MB", r.HeapPeakMB)
	out.set("go.alloc_mb", "MB", r.AllocMB)
}
