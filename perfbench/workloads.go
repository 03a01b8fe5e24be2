package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"

	"tshmem/internal/arch"
	"tshmem/internal/core"
	"tshmem/internal/kernels"
	"tshmem/internal/stats"
)

// defaultSeed is the bfs-gets seed for routine runs and the seed of its
// virtual-result record (README.md also names a hold-out seed).
const defaultSeed = 1

func workloadNames() []string { return []string{"bfs-gets", "figure-sweeps", "cbir-fig14"} }

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "bfs-gets":
		return newBFS(seed), nil
	case "figure-sweeps":
		return &figures{}, nil
	case "cbir-fig14":
		return newCBIR(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

// warmKernels launches every corpus kernel once at its probe size on 32
// PEs of two chip families, seeded apart from any timed input: it starts
// the runtime's worker pools and grows the heap without producing
// anything a timed operation reads.
func warmKernels() error {
	sizes := map[string]int{"sort": 4096, "bfs": 2048, "stencil": 64, "wordcount": 8192}
	for _, chip := range []*arch.Chip{arch.Gx8036(), arch.Pro64()} {
		for _, k := range kernels.Kernels() {
			s := kernels.Spec{Size: sizes[k.Name()], Seed: -12345, NPEs: 32}
			if _, _, err := kernels.Launch(k, s, core.Config{Chip: chip}); err != nil {
				return fmt.Errorf("%s on %s: %w", k.Name(), chip.Name, err)
			}
		}
	}
	return nil
}

// add folds one sim's substrate counters into c.
func (c *simCounts) add(st stats.Counters) {
	for _, n := range st.Ops {
		c.Ops += n
	}
	c.RMABytes += st.TotalRMABytes()
	c.Atomics += st.Ops[stats.OpAtomic]
	c.UDNMsgs += st.UDNMsgsSent
	c.Barriers += st.Ops[stats.OpBarrier]
}

// ---- bfs-gets ----

// bfsGets is one BFS kernel launch per operation: 32 PEs on
// TILE-Gx8036 over a seeded graph, so per-element remote gets and
// owner-local atomic claims dominate host time.
type bfsGets struct {
	spec kernels.Spec
	k    kernels.Kernel

	first   *bfsKept // the first kept operation
	fullOut []int64  // its output, until the oracle has checked it
	once    sync.Once
	refErr  error
}

type bfsKept struct {
	makespan int64 // virtual ps
	digest   string
}

const (
	bfsVertices = 25000
	bfsPEs      = 32
)

func newBFS(seed int64) *bfsGets {
	k, err := kernels.ByName("bfs")
	if err != nil {
		panic(err) // the corpus always registers bfs
	}
	return &bfsGets{spec: kernels.Spec{Size: bfsVertices, Seed: seed, NPEs: bfsPEs}, k: k}
}

func (b *bfsGets) Name() string              { return "bfs-gets" }
func (b *bfsGets) MaxOps() int               { return 0 }
func (b *bfsGets) SimsPerOp(rec *record) int { return 1 }

func (b *bfsGets) Warmup() error {
	if err := warmKernels(); err != nil {
		return err
	}
	// A full-size launch on another graph grows the heap to its working
	// size; its output is discarded.
	s := b.spec
	s.Seed = ^b.spec.Seed
	_, _, err := b.launch(s, false)
	return err
}

func (b *bfsGets) launch(s kernels.Spec, observe bool) (*core.Report, []int64, error) {
	return kernels.Launch(b.k, s, core.Config{Chip: arch.Gx8036(), Observe: observe})
}

type bfsOut struct {
	rep *core.Report
	out []int64
}

func (b *bfsGets) Op(sp *spanLog) (any, error) {
	var o bfsOut
	err := sp.do("launch", true, func() (err error) {
		o.rep, o.out, err = b.launch(b.spec, false)
		return err
	})
	return o, err
}

func digestInt64s(v []int64) string {
	h := sha256.New()
	var buf [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (b *bfsGets) Keep(i int, out any) any {
	o := out.(bfsOut)
	k := bfsKept{makespan: int64(o.rep.MaxTime), digest: digestInt64s(o.out)}
	if b.first == nil {
		b.first, b.fullOut = &k, o.out
	}
	return k
}

// Check verifies the first kept output against the kernel's serial
// oracle and the virtual-result record, then requires every operation
// to repeat its makespan and output exactly.
func (b *bfsGets) Check(i int, kept any, rec *record) error {
	b.once.Do(func() { b.refErr = b.checkFirst(rec) })
	if b.refErr != nil {
		return b.refErr
	}
	if k := kept.(bfsKept); k != *b.first {
		return fmt.Errorf("bfs repetition diverged: makespan %d ps digest %.12s, first op %d ps %.12s",
			k.makespan, k.digest, b.first.makespan, b.first.digest)
	}
	return nil
}

func (b *bfsGets) checkFirst(rec *record) error {
	if b.first == nil {
		return fmt.Errorf("no operation produced an output")
	}
	if err := b.k.Verify(b.spec, b.fullOut); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	b.fullOut = nil
	want := rec.BFS
	got := bfsRecord{Seed: b.spec.Seed, Vertices: b.spec.Size, PEs: b.spec.NPEs,
		MakespanPs: b.first.makespan, OutputSHA256: b.first.digest}
	if got.Seed != want.Seed || got.Vertices != want.Vertices || got.PEs != want.PEs {
		// The run's graph is not the recorded one: launch the recorded
		// spec once, untimed, so that every run checks the record.
		var err error
		if got, err = recordBFS(want.Seed, want.Vertices, want.PEs); err != nil {
			return err
		}
	}
	if got != want {
		return fmt.Errorf("virtual result differs from record.json: got %+v, recorded %+v", got, want)
	}
	return nil
}

// Observe relaunches the run's spec with counters on; the makespan and
// output must equal the timed ones.
func (b *bfsGets) Observe(rec *record) (simCounts, error) {
	var c simCounts
	rep, out, err := b.launch(b.spec, true)
	if err != nil {
		return c, err
	}
	if b.first == nil || digestInt64s(out) != b.first.digest || int64(rep.MaxTime) != b.first.makespan {
		return c, fmt.Errorf("observed bfs makespan or output differs from the timed one")
	}
	c.Sims, c.MakespanSims = 1, 1
	c.MakespanUs = rep.MaxTime.Us()
	c.add(rep.Stats())
	return c, nil
}
