package main

import (
	"bytes"
	"fmt"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"
)

// workload is one benchmark workload. Op is the only method called
// inside a timed interval.
type workload interface {
	Name() string
	// Warmup pays lazy initialization before timing. It computes
	// nothing the timed operations reuse and checks nothing.
	Warmup() error
	// MaxOps caps the operations of one run; 0 means no cap.
	MaxOps() int
	// SimsPerOp is the number of core.Run launches in one operation.
	SimsPerOp(rec *record) int
	// Op runs one operation and returns its raw output.
	Op(sp *spanLog) (any, error)
	// Keep reduces an output to what Check needs, outside the timed
	// interval, so a run does not hold every raw output on the heap.
	Keep(i int, out any) any
	// Check verifies operation i's kept output after the timed phase.
	Check(i int, kept any, rec *record) error
	// Observe runs one untimed operation with substrate counters on.
	Observe(rec *record) (simCounts, error)
}

// simCounts is simulated work summed over the observed sims of one
// operation.
type simCounts struct {
	Sims       int     // sims whose counters are included below
	MakespanUs float64 // summed over MakespanSims sims
	// MakespanSims is how many sims contributed a makespan: every sim,
	// except where the entry point reports none (figure-sweeps).
	MakespanSims                              int
	Ops, RMABytes, Atomics, UDNMsgs, Barriers int64
}

// spanLog keeps the spans of a traced run in memory; a nil *spanLog
// records nothing, so untraced runs pay one branch per call.
type spanLog struct {
	op    int
	t0    time.Time
	spans []span
}

type span struct {
	Name       string
	Op         int
	Launch     bool // a call into the program (counted in span.launch_s)
	Start, End time.Duration
}

// do runs f as span name of the current operation.
func (s *spanLog) do(name string, launch bool, f func() error) error {
	if s == nil {
		return f()
	}
	a := time.Since(s.t0)
	err := f()
	s.spans = append(s.spans, span{Name: name, Op: s.op, Launch: launch, Start: a, End: time.Since(s.t0)})
	return err
}

// perOp returns the mean seconds per operation spent in spans that
// match keep.
func (s *spanLog) perOp(ops int, keep func(span) bool) float64 {
	if s == nil || ops == 0 {
		return 0
	}
	var t time.Duration
	for _, sp := range s.spans {
		if keep(sp) {
			t += sp.End - sp.Start
		}
	}
	return t.Seconds() / float64(ops)
}

type result struct {
	attempted, failed int
	correct           bool
	setupS            float64
	opWall            []float64
	wallS, cpuS       float64
	allocB            uint64
	opRSSMB           []float64 // sampled peak resident set of each operation
	peakRSSMB         float64   // process high-water mark after the timed phase
	setupRSSMB        float64   // process high-water mark when set-up ended
	sims              int
	firstErr          error  // first failed operation's error
	runErrText        string // why correct is false

	// traced runs only
	spans *spanLog
	att   attribution
	rt    runtimeDelta
	obs   simCounts
}

func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func allocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// measure times whole operations until d has elapsed (at least one,
// at most w.MaxOps()), then checks them. Only Op runs inside the timed
// intervals whose sums give wall, CPU and allocation per sim.
func measure(w workload, rec *record, d time.Duration, traced bool) (*result, error) {
	r := &result{correct: true}
	var kept []any
	var errs []error
	var prof bytes.Buffer
	var rt0 runtimeDelta
	if traced {
		r.spans = &spanLog{t0: time.Now()}
		rt0 = readRuntime()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	rss := startRSSSampler()
	var elapsed time.Duration
	for i := 0; i == 0 || elapsed < d; i++ {
		if m := w.MaxOps(); m > 0 && i >= m {
			break
		}
		if r.spans != nil {
			r.spans.op = i
		}
		rss.take()
		a0, c0, t0 := allocBytes(), cpuNow(), time.Now()
		out, err := w.Op(r.spans)
		wall := time.Since(t0)
		c1, a1 := cpuNow(), allocBytes()
		r.opRSSMB = append(r.opRSSMB, float64(rss.take())/1e6)
		elapsed += wall
		r.opWall = append(r.opWall, wall.Seconds())
		r.cpuS += (c1 - c0).Seconds()
		r.allocB += a1 - a0
		if err == nil {
			kept = append(kept, w.Keep(i, out))
		} else {
			kept = append(kept, nil)
		}
		errs = append(errs, err)
	}
	rss.stopAndWait()
	r.wallS = elapsed.Seconds()
	r.peakRSSMB = peakRSSMB()
	if traced {
		pprof.StopCPUProfile()
		r.rt = readRuntime().sub(rt0)
		var err error
		if r.att, err = attribute(prof.Bytes()); err != nil {
			r.correct = false
			r.runErrText = "cpu profile: " + err.Error()
		}
	}

	r.attempted = len(errs)
	r.sims = r.attempted * w.SimsPerOp(rec)
	for i := range errs {
		if r.spans != nil {
			r.spans.op = i
		}
		err := errs[i]
		if err == nil {
			err = r.spans.do("verify", false, func() error { return w.Check(i, kept[i], rec) })
		}
		if err != nil {
			r.failed++
			if r.firstErr == nil {
				r.firstErr = fmt.Errorf("operation %d: %w", i, err)
			}
		}
	}
	if traced {
		obs, err := w.Observe(rec)
		if err != nil {
			r.correct = false
			r.runErrText = "observed pass: " + err.Error()
		}
		r.obs = obs
	}
	return r, nil
}

// output builds the result line: end-to-end metrics, or with traced
// the per-layer ones.
func (r *result) output(traced bool) output {
	o := output{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	vals := r.endToEnd()
	specs := endToEnd
	if traced {
		vals = r.perLayer()
		specs = perLayer()
	}
	for _, m := range specs {
		o.Metrics[m.Name] = metricValue{Value: vals[m.Name], Unit: m.Unit}
	}
	return o
}

func (r *result) perSim(v float64) float64 {
	if r.sims == 0 {
		return 0
	}
	return v / float64(r.sims)
}

func (r *result) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":          r.setupS,
		"op_wall_s":        median(r.opWall),
		"sims_per_s":       float64(r.sims) / r.wallS,
		"cpu_s_per_sim":    r.perSim(r.cpuS),
		"alloc_mb_per_sim": r.perSim(float64(r.allocB) / 1e6),
		"peak_rss_mb":      median(r.opRSSMB),
	}
}

func (r *result) perLayer() map[string]float64 {
	m := map[string]float64{}
	for mod, ns := range r.att.byModule {
		m[mod+".cpu_s_per_sim"] = r.perSim(float64(ns) / 1e9)
	}
	m["cpu.profiled_s_per_sim"] = r.perSim(float64(r.att.total) / 1e9)
	m["runtime.gc_cpu_s_per_sim"] = r.perSim(r.rt.gcCPUS)
	m["runtime.gc_cycles_per_sim"] = r.perSim(float64(r.rt.gcCycles))
	m["runtime.sched_latency_p50_us"] = r.rt.schedP50Us

	o := r.obs
	per := func(v int64) float64 {
		if o.Sims == 0 {
			return 0
		}
		return float64(v) / float64(o.Sims)
	}
	if o.MakespanSims > 0 {
		m["sim.makespan_us"] = o.MakespanUs / float64(o.MakespanSims)
	}
	m["sim.ops_per_sim"] = per(o.Ops)
	m["sim.rma_bytes_per_sim"] = per(o.RMABytes)
	m["sim.atomics_per_sim"] = per(o.Atomics)
	m["sim.udn_msgs_per_sim"] = per(o.UDNMsgs)
	m["sim.barriers_per_sim"] = per(o.Barriers)
	if ops := per(o.Ops); ops > 0 {
		m["sim.host_ns_per_op"] = r.perSim(r.cpuS) / ops * 1e9
	}

	m["span.launch_s"] = r.spans.perOp(r.attempted, func(s span) bool { return s.Launch })
	m["span.verify_s"] = r.spans.perOp(r.attempted, func(s span) bool { return s.Name == "verify" })
	for _, id := range sweepStepIDs() {
		m["span."+id+"_s"] = r.spans.perOp(r.attempted, func(s span) bool { return s.Name == id })
	}
	return m
}

// summary is the human-readable stderr line of a run.
func (r *result) summary(name string) string {
	s := fmt.Sprintf("%s: %d ops (%d failed), %d sims in %.3f s wall; op_wall median %.4f s; cpu/sim %.4f s; setup %.3f s; op peak RSS median %.1f MB; process high-water %.1f MB (%.1f MB after set-up)",
		name, r.attempted, r.failed, r.sims, r.wallS, median(r.opWall), r.perSim(r.cpuS), r.setupS, median(r.opRSSMB), r.peakRSSMB, r.setupRSSMB)
	if r.firstErr != nil {
		s += "\nfirst failure: " + r.firstErr.Error()
	}
	if r.runErrText != "" {
		s += "\nrun check failed: " + r.runErrText
	}
	return s
}
