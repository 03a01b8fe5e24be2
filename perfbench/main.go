// Command perfbench times the TSHMEM simulator in host time through its
// public entry points and checks every output it times. run.py builds
// it and is the benchmark's one command; see README.md.
//
// A run warms up, times whole operations (closed loop, one in flight)
// for -seconds, then checks every operation's output and prints one
// JSON result line. With -trace 1 it additionally records a CPU
// profile, runtime/metrics deltas and spans over the timed phase, and
// one untimed pass with substrate counters on, and prints the
// per-layer metrics instead of the end-to-end ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name      = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed      = fs.Int64("seed", defaultSeed, "input seed (bfs-gets only; the other workloads have fixed inputs)")
		seconds   = fs.Float64("seconds", 30, "length of the timed phase in seconds")
		trace     = fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
		t0        = fs.Int64("t0-unix-ns", 0, "wall clock (Unix ns) at which the launcher started this process; 0 means process init")
		setupOnly = fs.Bool("setup-only", false, "warm up, print the set-up time as JSON and exit")
		priors    = fs.String("setup-samples", "", "comma-separated set-up times (s) of earlier set-up-only processes, folded into the reported median")
		dir       = fs.String("dir", ".", "directory that holds record.json")
		write     = fs.Bool("write-record", false, "recompute every workload's virtual-result record and rewrite record.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	recPath := filepath.Join(*dir, "record.json")
	if *write {
		if err := writeRecord(recPath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	start := processStart
	if *t0 > 0 {
		start = time.Unix(0, *t0)
	}
	rec, err := loadRecord(recPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	if err := w.Warmup(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: warm-up:", err)
		return 1
	}
	setup := time.Since(start).Seconds()
	setupRSS := peakRSSMB()
	if *setupOnly {
		fmt.Printf("{\"setup_s\": %s}\n", strconv.FormatFloat(setup, 'g', -1, 64))
		return 0
	}
	setups := []float64{setup}
	for _, f := range strings.Split(*priors, ",") {
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: -setup-samples:", err)
			return 2
		}
		setups = append(setups, v)
	}

	res, err := measure(w, rec, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.setupS = median(setups)
	res.setupRSSMB = setupRSS
	fmt.Fprintln(os.Stderr, res.summary(w.Name()))
	line, err := json.Marshal(res.output(*trace == 1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// processStart approximates process start when the launcher passes no
// -t0-unix-ns: package initialization runs right after runtime start.
var processStart = time.Now()

// metricSpec names one printed metric. The set printed must equal the
// set BENCHMARK.json declares (TestMetricsMatchBenchmarkJSON).
type metricSpec struct {
	Name, Unit, Better string
}

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"op_wall_s", "s", "lower"},
	{"sims_per_s", "1/s", "higher"},
	{"cpu_s_per_sim", "s", "lower"},
	{"alloc_mb_per_sim", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer lists the traced run's metrics in print order: CPU per sim
// by module, Go runtime, simulated work, then spans.
func perLayer() []metricSpec {
	var out []metricSpec
	for _, m := range append(append([]string{}, modules...), "runtime", "other") {
		out = append(out, metricSpec{m + ".cpu_s_per_sim", "s", "lower"})
	}
	out = append(out,
		metricSpec{"cpu.profiled_s_per_sim", "s", "lower"},
		metricSpec{"runtime.gc_cpu_s_per_sim", "s", "lower"},
		metricSpec{"runtime.gc_cycles_per_sim", "count", "lower"},
		metricSpec{"runtime.sched_latency_p50_us", "us", "lower"},
		metricSpec{"sim.makespan_us", "us", "lower"},
		metricSpec{"sim.ops_per_sim", "count", "lower"},
		metricSpec{"sim.rma_bytes_per_sim", "B", "lower"},
		metricSpec{"sim.atomics_per_sim", "count", "lower"},
		metricSpec{"sim.udn_msgs_per_sim", "count", "lower"},
		metricSpec{"sim.barriers_per_sim", "count", "lower"},
		metricSpec{"sim.host_ns_per_op", "ns", "lower"},
		metricSpec{"span.launch_s", "s", "lower"},
		metricSpec{"span.verify_s", "s", "lower"},
	)
	for _, id := range sweepStepIDs() {
		out = append(out, metricSpec{"span." + id + "_s", "s", "lower"})
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
