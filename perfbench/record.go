package main

import (
	"encoding/json"
	"fmt"
	"os"

	"tshmem/internal/bench"
)

// record is the virtual-result record (record.json): what each
// workload's sims computed, in virtual time and output, when it was last
// regenerated. Every run compares its sims with it, so a change that
// moves the cost model fails every operation until the record is
// rewritten with -write-record (README.md, "Virtual results").
type record struct {
	BFS     bfsRecord `json:"bfs-gets"`
	Figures struct {
		SimsPerOp int               `json:"sims_per_op"`
		Outputs   map[string]string `json:"output_sha256"`
	} `json:"figure-sweeps"`
	CBIR struct {
		Points []cbirPoint `json:"points"`
	} `json:"cbir-fig14"`
}

type bfsRecord struct {
	Seed         int64  `json:"seed"`
	Vertices     int    `json:"vertices"`
	PEs          int    `json:"pes"`
	MakespanPs   int64  `json:"makespan_ps"`
	OutputSHA256 string `json:"output_sha256"`
}

func loadRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("virtual-result record: %w", err)
	}
	var r record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("virtual-result record %s: %w", path, err)
	}
	return &r, nil
}

// recordBFS launches the recorded BFS spec and returns its virtual
// result, after checking the output against the serial oracle.
func recordBFS(seed int64, vertices, pes int) (bfsRecord, error) {
	b := newBFS(seed)
	b.spec.Size, b.spec.NPEs = vertices, pes
	rep, out, err := b.launch(b.spec, false)
	if err != nil {
		return bfsRecord{}, fmt.Errorf("bfs record launch: %w", err)
	}
	if err := b.k.Verify(b.spec, out); err != nil {
		return bfsRecord{}, fmt.Errorf("bfs record launch: oracle: %w", err)
	}
	return bfsRecord{Seed: seed, Vertices: vertices, PEs: pes, MakespanPs: int64(rep.MaxTime), OutputSHA256: digestInt64s(out)}, nil
}

// writeRecord recomputes every workload's virtual results and writes
// them to path. The figure pass runs twice, the second time with
// substrate counters on: that counts its sims and shows the counters
// leave its outputs unchanged. Outputs are checked as in a run before
// they are recorded.
func writeRecord(path string) error {
	var r record
	var err error
	if r.BFS, err = recordBFS(defaultSeed, bfsVertices, bfsPEs); err != nil {
		return err
	}

	p, err := runFigPass(nil, bench.Options{Quick: true})
	if err != nil {
		return err
	}
	if err := checkFindings(p.exp); err != nil {
		return err
	}
	r.Figures.Outputs = map[string]string{}
	for id, text := range p.text {
		r.Figures.Outputs[id] = digestText(text)
	}
	sc, err := observeFigPass(r.Figures.Outputs)
	if err != nil {
		return err
	}
	r.Figures.SimsPerOp = sc.Sims + sc.MakespanSims

	c := newCBIR()
	if r.CBIR.Points, _, err = c.pass(nil, false); err != nil {
		return err
	}
	if err := c.Check(0, r.CBIR.Points, &r); err != nil {
		return err
	}

	b, err := json.MarshalIndent(&r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
