package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"os"
	"runtime/pprof"
	"testing"
	"time"
)

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricSpec) {
		t.Helper()
		g := map[string]metricSpec{}
		for _, m := range got {
			g[m.Name] = m
		}
		if len(g) != len(got) {
			t.Errorf("%s: the benchmark prints a metric name twice", kind)
		}
		w := map[string]metricSpec{}
		for _, m := range want {
			w[m.Name] = m
			if g[m.Name] != m {
				t.Errorf("%s: BENCHMARK.json has %+v, the benchmark prints %+v", kind, m, g[m.Name])
			}
		}
		for _, m := range got {
			if _, ok := w[m.Name]; !ok {
				t.Errorf("%s: the benchmark prints %q, BENCHMARK.json lacks it", kind, m.Name)
			}
		}
	}
	same("end_to_end", endToEnd, bj.EndToEnd)
	same("per_layer", perLayer(), bj.PerLayer)

	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
	for i, n := range workloadNames() {
		if names[i] != n {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, names[i], n)
		}
	}

	// Every result line carries exactly the declared set.
	r := &result{sims: 1, opWall: []float64{1}, opRSSMB: []float64{1}, wallS: 1}
	if o := r.output(false); len(o.Metrics) != len(endToEnd) {
		t.Errorf("untraced output has %d metrics, want %d", len(o.Metrics), len(endToEnd))
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"tshmem/internal/core.(*PE).G":                                               "core",
		"tshmem/internal/core.G[go.shape.int64]":                                     "core",
		"tshmem/internal/kernels.bfsKernel.Run.func1":                                "kernels",
		"tshmem/internal/core.Malloc[go.shape.struct { X tshmem/internal/vtime.T }]": "core",
		"tshmem.Run":                          "other",
		"tshmem/perfbench.(*bfsGets).Op":      "other",
		"tshmem/shmemc.Put":                   "other",
		"runtime.mallocgc":                    "",
		"sync.(*Mutex).Lock":                  "",
		"github.com/x/tshmem/internal/core.F": "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a tiny protobuf encoder for hand-built profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(x uint64) {
	for x >= 0x80 {
		b.WriteByte(byte(x) | 0x80)
		x >>= 7
	}
	b.WriteByte(byte(x))
}
func (b *pb) uint(field int, x uint64) { b.varint(uint64(field) << 3); b.varint(x) }
func (b *pb) bytes(field int, v []byte) {
	b.varint(uint64(field)<<3 | 2)
	b.varint(uint64(len(v)))
	b.Write(v)
}
func (b *pb) msg(field int, f func(*pb)) {
	var m pb
	f(&m)
	b.bytes(field, m.Bytes())
}

func TestAttributionChargesEverySampleOnce(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"tshmem/internal/cache.(*Model).CopyCost", // 5
		"tshmem/internal/core.(*PE).G",            // 6
		"runtime.mallocgc",                        // 7
		"tshmem/perfbench.main",                   // 8
	}
	var p pb
	p.msg(1, func(m *pb) { m.uint(1, 1); m.uint(2, 2) })
	p.msg(1, func(m *pb) { m.uint(1, 3); m.uint(2, 4) })
	// Location 1 inlines cache into core (innermost first); 2 is the
	// runtime allocator; 3 is the benchmark's own main; 4 is core alone.
	p.msg(4, func(m *pb) {
		m.uint(1, 1)
		m.msg(4, func(l *pb) { l.uint(1, 5) })
		m.msg(4, func(l *pb) { l.uint(1, 6) })
	})
	p.msg(4, func(m *pb) { m.uint(1, 2); m.msg(4, func(l *pb) { l.uint(1, 7) }) })
	p.msg(4, func(m *pb) { m.uint(1, 3); m.msg(4, func(l *pb) { l.uint(1, 8) }) })
	p.msg(4, func(m *pb) { m.uint(1, 4); m.msg(4, func(l *pb) { l.uint(1, 6) }) })
	for id, name := range map[uint64]uint64{5: 5, 6: 6, 7: 7, 8: 8} {
		p.msg(5, func(m *pb) { m.uint(1, id); m.uint(2, name) })
	}
	sample := func(locs []uint64, ns uint64, packed bool) {
		p.msg(2, func(m *pb) {
			if packed {
				var l pb
				for _, x := range locs {
					l.varint(x)
				}
				m.bytes(1, l.Bytes())
			} else {
				for _, x := range locs {
					m.uint(1, x)
				}
			}
			m.uint(2, 1)
			m.uint(2, ns)
		})
	}
	sample([]uint64{1, 3}, 10, true)  // cache, inlined in core
	sample([]uint64{2, 4}, 20, false) // runtime leaf under core: core
	sample([]uint64{2}, 40, true)     // no tshmem frame: runtime
	sample([]uint64{2, 3}, 80, false) // allocator under the benchmark: other
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.Bytes())
	zw.Close()

	a, err := attribute(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"cache": 10, "core": 20, "runtime": 40, "other": 80}
	var sum int64
	for m, ns := range a.byModule {
		sum += ns
		if ns != want[m] {
			t.Errorf("%s: %d ns, want %d", m, ns, want[m])
		}
	}
	if sum != a.total || a.total != 150 {
		t.Errorf("modules sum to %d ns, total %d, want 150", sum, a.total)
	}
}

func TestAttributionOfARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	b := newBFS(defaultSeed)
	b.spec.Size = 4000
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		if _, _, err := b.launch(b.spec, false); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	a, err := attribute(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, ns := range a.byModule {
		sum += ns
	}
	if sum != a.total || a.total == 0 {
		t.Fatalf("modules sum to %d ns of %d profiled", sum, a.total)
	}
	if a.byModule["core"] == 0 {
		t.Errorf("no CPU charged to core: %v", a.byModule)
	}
	if len(a.byModule) != len(modules)+2 {
		t.Errorf("attribution has %d modules, want %d", len(a.byModule), len(modules)+2)
	}
}

// corruptBFS flips one vertex of the second operation's output.
type corruptBFS struct{ *bfsGets }

func (c corruptBFS) MaxOps() int { return 2 }
func (c corruptBFS) Keep(i int, out any) any {
	if i == 1 {
		o := out.(bfsOut)
		o.out = append([]int64(nil), o.out...)
		o.out[len(o.out)/2]++
		out = o
	}
	return c.bfsGets.Keep(i, out)
}

func TestCorruptedOutputIsAFailedOperation(t *testing.T) {
	rec, err := loadRecord("record.json")
	if err != nil {
		t.Fatal(err)
	}
	b := newBFS(defaultSeed)
	b.spec.Size = 3000
	r, err := measure(corruptBFS{b}, rec, time.Hour, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.attempted != 2 || r.failed != 1 {
		t.Fatalf("attempted %d, failed %d; want 2 and 1 (%v)", r.attempted, r.failed, r.firstErr)
	}
}

func TestCorruptedFirstOutputFailsTheOracle(t *testing.T) {
	rec, err := loadRecord("record.json")
	if err != nil {
		t.Fatal(err)
	}
	b := newBFS(defaultSeed)
	b.spec.Size = 3000
	out := bfsOut{}
	if out.rep, out.out, err = b.launch(b.spec, false); err != nil {
		t.Fatal(err)
	}
	out.out[0] = -7
	if err := b.Check(0, b.Keep(0, out), rec); err == nil {
		t.Fatal("a corrupted output passed the oracle")
	}
}
