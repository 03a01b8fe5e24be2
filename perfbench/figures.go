package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"

	"tshmem/internal/bench"
	"tshmem/internal/kernels"
	"tshmem/internal/stats"
)

// figures runs, per operation, every registered experiment except fig14
// at the CLI's default (quick) scale, then the chip and kernel sweep
// tables.
type figures struct{}

// Sweep steps that follow the experiments, by span ID. SweepAlgos is
// left out: under the default goroutine engine its contended-lock
// column changes from one call to the next (host order leaks into
// virtual time; README.md, "Virtual results"), so no repetition check
// could pass on it.
var sweepSteps = []struct {
	id  string
	run func(bench.Options) (string, error)
}{
	{"sweep_chips", bench.SweepChips},
	{"sweep_kernels", bench.SweepKernels},
}

// figureRunners lists the experiments one pass runs, in paper order.
// fig14 is the cbir-fig14 workload's alone: at quick scale it costs four
// times the rest of the suite together.
func figureRunners() []bench.Runner {
	var out []bench.Runner
	for _, r := range bench.Runners() {
		if r.ID != "fig14" {
			out = append(out, r)
		}
	}
	return out
}

// sweepStepIDs names every step of a figure-sweeps pass; each has its
// own span metric.
func sweepStepIDs() []string {
	var ids []string
	for _, r := range figureRunners() {
		ids = append(ids, r.ID)
	}
	for _, s := range sweepSteps {
		ids = append(ids, s.id)
	}
	return ids
}

// figPass is one pass's outputs: each step's rendered text and, for
// experiments, the series the property checks read.
type figPass struct {
	text map[string]string
	exp  map[string]bench.Experiment
}

func (f *figures) Name() string              { return "figure-sweeps" }
func (f *figures) MaxOps() int               { return 0 }
func (f *figures) SimsPerOp(rec *record) int { return rec.Figures.SimsPerOp }
func (f *figures) Warmup() error             { return warmKernels() }

func (f *figures) Op(sp *spanLog) (any, error) {
	return runFigPass(sp, bench.Options{Quick: true})
}

func runFigPass(sp *spanLog, opt bench.Options) (figPass, error) {
	p := figPass{text: map[string]string{}, exp: map[string]bench.Experiment{}}
	for _, r := range figureRunners() {
		err := sp.do(r.ID, true, func() error {
			e, err := r.Run(opt)
			p.exp[r.ID] = e
			return err
		})
		if err != nil {
			return p, fmt.Errorf("%s: %w", r.ID, err)
		}
		p.text[r.ID] = p.exp[r.ID].Format()
	}
	for _, s := range sweepSteps {
		err := sp.do(s.id, true, func() (err error) {
			p.text[s.id], err = s.run(opt)
			return err
		})
		if err != nil {
			return p, fmt.Errorf("%s: %w", s.id, err)
		}
	}
	return p, nil
}

func (f *figures) Keep(i int, out any) any { return out }

func digestText(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// Check requires every step's output to equal the record (so passes
// repeat each other) and the experiments to show the paper's findings.
func (f *figures) Check(i int, kept any, rec *record) error {
	p := kept.(figPass)
	if err := compareDigests(p, rec.Figures.Outputs); err != nil {
		return err
	}
	return checkFindings(p.exp)
}

func compareDigests(p figPass, want map[string]string) error {
	for _, id := range sweepStepIDs() {
		if got := digestText(p.text[id]); got != want[id] {
			return fmt.Errorf("%s output differs from record.json (sha256 %.12s, recorded %.12s)", id, got, want[id])
		}
	}
	if len(want) != len(sweepStepIDs()) {
		return fmt.Errorf("record.json lists %d figure steps, the pass has %d", len(want), len(sweepStepIDs()))
	}
	return nil
}

// Observe reruns the pass with substrate counters on; its outputs and
// sim count must equal the record's.
func (f *figures) Observe(rec *record) (simCounts, error) {
	c, err := observeFigPass(rec.Figures.Outputs)
	if err == nil && c.Sims+c.MakespanSims != rec.Figures.SimsPerOp {
		err = fmt.Errorf("pass launched %d sims, record.json says %d", c.Sims+c.MakespanSims, rec.Figures.SimsPerOp)
	}
	return c, err
}

// observeFigPass runs one pass with a collector on every experiment
// launch and checks its outputs against want. SweepKernels takes no
// collector, so its sims add their makespans (the only ones any step
// prints) but no counters: Sims counts the observed sims and
// MakespanSims the kernel-sweep ones.
func observeFigPass(want map[string]string) (simCounts, error) {
	var c simCounts
	col := &stats.Collector{}
	p, err := runFigPass(nil, bench.Options{Quick: true, Obs: col})
	if err != nil {
		return c, err
	}
	if err := compareDigests(p, want); err != nil {
		return c, fmt.Errorf("observed pass: %w", err)
	}
	runs, st := col.Snapshot()
	c.Sims = runs
	c.add(st)
	ms, err := kernelSweepMakespans(p.text["sweep_kernels"])
	if err != nil {
		return c, err
	}
	for _, v := range ms {
		c.MakespanUs += v
	}
	c.MakespanSims = len(ms)
	return c, nil
}

// kernelSweepMakespans parses the cells (virtual makespan, us) of the
// SweepKernels table: a "kernel \ chip" header naming the chips, then
// one row per corpus kernel with one cell per chip.
func kernelSweepMakespans(table string) ([]float64, error) {
	var out []float64
	chips, rows := -1, 0
	for _, line := range strings.Split(table, "\n") {
		f := strings.Fields(line)
		if len(f) > 3 && f[0] == "kernel" && f[1] == "\\" && f[2] == "chip" {
			chips = len(f) - 3
			continue
		}
		if chips < 0 || len(f) != chips+1 {
			continue
		}
		if _, err := kernels.ByName(f[0]); err != nil {
			continue
		}
		rows++
		for _, cell := range f[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, fmt.Errorf("sweep_kernels cell %q: %w", cell, err)
			}
			out = append(out, v)
		}
	}
	if rows != len(kernels.Kernels()) {
		return nil, fmt.Errorf("sweep_kernels table has %d kernel rows, want %d", rows, len(kernels.Kernels()))
	}
	return out, nil
}

// ---- the paper's findings, checked as properties ----

func series(e bench.Experiment, label string) (bench.Series, error) {
	for _, s := range e.Series {
		if s.Label == label {
			return s, nil
		}
	}
	return bench.Series{}, fmt.Errorf("%s: no series %q", e.ID, label)
}

func at(s bench.Series, x float64) (float64, error) {
	for i, sx := range s.X {
		if sx == x {
			return s.Y[i], nil
		}
	}
	return 0, fmt.Errorf("series %q has no point at x=%g", s.Label, x)
}

func peak(s bench.Series) float64 {
	m := math.Inf(-1)
	for _, y := range s.Y {
		m = math.Max(m, y)
	}
	return m
}

// findings are the paper's evaluation claims the quick-scale pass must
// reproduce, by the experiments they read.
var findings = []struct {
	name string
	ids  []string
	fn   func(map[string]bench.Experiment) error
}{
	{"UDN latency rises with distance (Fig. 4)", []string{"fig4"}, udnLatencyRises},
	{"put and get bandwidth agree within 10% (Fig. 6)", []string{"fig6"}, putGetAgree},
	{"static-static is the slowest operand pair (Fig. 7)", []string{"fig7"}, staticStaticSlowest},
	{"TMC spin barrier beats the UDN chain at 36 Gx tiles (Fig. 8)", []string{"fig8"}, spinBeatsChain},
	{"push broadcast does not scale; pull grows >=5x to 29 tiles, then dips (Figs. 9-10)", []string{"fig9", "fig10"}, broadcastShapes},
	{"naive reduction stays flat and recursive doubling beats it (Figs. 12/12b)", []string{"fig12", "fig12b"}, reductionShapes},
	{"Gx FFT speedup at 32 tiles is between 3 and 8 (Fig. 13)", []string{"fig13"}, fftSpeedup},
}

func checkFindings(exp map[string]bench.Experiment) error {
	for _, f := range findings {
		for _, id := range f.ids {
			if _, ok := exp[id]; !ok {
				return fmt.Errorf("%s: experiment %s missing", f.name, id)
			}
		}
		if err := f.fn(exp); err != nil {
			return fmt.Errorf("finding %q does not hold: %w", f.name, err)
		}
	}
	return nil
}

func udnLatencyRises(exp map[string]bench.Experiment) error {
	for _, s := range exp["fig4"].Series {
		for i := 1; i < len(s.Y); i++ {
			if !(s.Y[i] > s.Y[i-1]) {
				return fmt.Errorf("%s: latency %g at class %g is not above %g at class %g", s.Label, s.Y[i], s.X[i], s.Y[i-1], s.X[i-1])
			}
		}
	}
	return nil
}

func putGetAgree(exp map[string]bench.Experiment) error {
	e := exp["fig6"]
	for _, chip := range []string{"Gx36", "Pro64"} {
		put, err := series(e, chip+" dyn-dyn put")
		if err != nil {
			return err
		}
		get, err := series(e, chip+" dyn-dyn get")
		if err != nil {
			return err
		}
		for i, x := range put.X {
			g, err := at(get, x)
			if err != nil {
				return err
			}
			if math.Abs(put.Y[i]-g) > 0.10*math.Max(put.Y[i], g) {
				return fmt.Errorf("%s at %g B: put %g vs get %g MB/s", chip, x, put.Y[i], g)
			}
		}
	}
	return nil
}

func staticStaticSlowest(exp map[string]bench.Experiment) error {
	e := exp["fig7"]
	for _, dir := range []string{"put", "get"} {
		ss, err := series(e, "stat-stat "+dir)
		if err != nil {
			return err
		}
		for _, s := range e.Series {
			if s.Label == ss.Label || !strings.HasSuffix(s.Label, " "+dir) {
				continue
			}
			for i, x := range ss.X {
				y, err := at(s, x)
				if err != nil {
					return err
				}
				if !(ss.Y[i] < y) {
					return fmt.Errorf("at %g B stat-stat %s %g MB/s is not below %s %g", x, dir, ss.Y[i], s.Label, y)
				}
			}
		}
	}
	return nil
}

func spinBeatsChain(exp map[string]bench.Experiment) error {
	e := exp["fig8"]
	spin, err := series(e, "Gx36 TMC spin")
	if err != nil {
		return err
	}
	chain, err := series(e, "Gx36 worst-case")
	if err != nil {
		return err
	}
	s, err := at(spin, 36)
	if err != nil {
		return err
	}
	c, err := at(chain, 36)
	if err != nil {
		return err
	}
	if !(s < c) {
		return fmt.Errorf("spin %g us is not below the UDN chain's %g us", s, c)
	}
	return nil
}

func broadcastShapes(exp map[string]bench.Experiment) error {
	for _, chip := range []string{"Gx36", "Pro64"} {
		push2, err := series(exp["fig9"], chip+" 2T")
		if err != nil {
			return err
		}
		push36, err := series(exp["fig9"], chip+" 36T")
		if err != nil {
			return err
		}
		for i, x := range push2.X {
			y36, err := at(push36, x)
			if err != nil {
				return err
			}
			if y36 > 1.5*push2.Y[i] {
				return fmt.Errorf("%s push at %g B/PE scales: %g MB/s at 36 tiles vs %g at 2", chip, x, y36, push2.Y[i])
			}
		}
		pull2, err := series(exp["fig10"], chip+" 2T")
		if err != nil {
			return err
		}
		pull29, err := series(exp["fig10"], chip+" 29T")
		if err != nil {
			return err
		}
		if g := peak(pull29) / peak(pull2); g < 5 {
			return fmt.Errorf("%s pull peak grows only %.2fx from 2 to 29 tiles", chip, g)
		}
	}
	// The dip past 29 tiles is the paper's TILE-Gx observation (46 GB/s
	// at 29 tiles, 37 at 36); the TILEPro64 keeps climbing to 36.
	pull29, err := series(exp["fig10"], "Gx36 29T")
	if err != nil {
		return err
	}
	pull36, err := series(exp["fig10"], "Gx36 36T")
	if err != nil {
		return err
	}
	if !(peak(pull36) < peak(pull29)) {
		return fmt.Errorf("Gx pull peak does not dip after 29 tiles: %g MB/s at 36 vs %g at 29", peak(pull36), peak(pull29))
	}
	return nil
}

func reductionShapes(exp map[string]bench.Experiment) error {
	naive, rd := exp["fig12"], exp["fig12b"]
	for _, chip := range []string{"Gx36", "Pro64"} {
		n2, err := series(naive, chip+" 2T")
		if err != nil {
			return err
		}
		n36, err := series(naive, chip+" 36T")
		if err != nil {
			return err
		}
		if peak(n36) > 1.25*peak(n2) {
			return fmt.Errorf("%s naive reduction scales: peak %g MB/s at 36 tiles vs %g at 2", chip, peak(n36), peak(n2))
		}
		for _, t := range []string{"2T", "8T", "16T"} {
			ns, err := series(naive, chip+" "+t)
			if err != nil {
				return err
			}
			rs, err := series(rd, chip+" "+t)
			if err != nil {
				return err
			}
			for i, x := range rs.X {
				y, err := at(ns, x)
				if err != nil {
					return err
				}
				if !(rs.Y[i] > y) {
					return fmt.Errorf("%s %s at %g B/PE: recursive doubling %g MB/s does not beat naive %g", chip, t, x, rs.Y[i], y)
				}
			}
		}
	}
	return nil
}

// fftSpeedup checks the TILE-Gx curve, which the paper says levels off
// near 5 behind the serialized transpose; the TILEPro64's slower
// compute hides the transpose longer (8.7 at 32 tiles, quick scale).
func fftSpeedup(exp map[string]bench.Experiment) error {
	s, err := series(exp["fig13"], "Gx36 speedup")
	if err != nil {
		return err
	}
	v, err := at(s, 32)
	if err != nil {
		return err
	}
	if v < 3 || v > 8 {
		return fmt.Errorf("speedup %g at 32 tiles", v)
	}
	return nil
}
