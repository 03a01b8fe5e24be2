package main

import (
	"bytes"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// rssSampler samples the process's resident set every rssPeriod, so that
// each operation gets its own peak. The process-lifetime high-water mark
// is one tail event (a single GC cycle that overshoots) and swings by a
// third between identical runs; the median of per-operation peaks is the
// memory an operation needs and repeats from run to run.
type rssSampler struct {
	peak atomic.Int64 // bytes, since the last take
	stop chan struct{}
	done sync.WaitGroup
}

const rssPeriod = 5 * time.Millisecond

// startRSSSampler starts the sampling goroutine; stopAndWait ends it.
func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(rssPeriod)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.observe()
			}
		}
	}()
	return s
}

func (s *rssSampler) observe() {
	v := residentBytes()
	for {
		old := s.peak.Load()
		if v <= old || s.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// take returns the peak since the previous take (current RSS included)
// and restarts the window.
func (s *rssSampler) take() int64 {
	s.observe()
	return s.peak.Swap(residentBytes())
}

func (s *rssSampler) stopAndWait() {
	close(s.stop)
	s.done.Wait()
}

// residentBytes reads the resident set from /proc/self/statm.
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}
