package main

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"tshmem/internal/arch"
	"tshmem/internal/cbir"
	"tshmem/internal/core"
)

// cbirFig14 is one Figure 14-shaped pass per operation: distributed
// CBIR over the same images at every chip and tile count, as the figure
// itself recomputes them. A run makes exactly one pass, so no image's
// features are computed more than once per point.
type cbirFig14 struct {
	images, topK int // the query is image images/2, as in the figure's runner
	tiles        []int
	chips        []*arch.Chip
	p            cbir.Params

	serialOnce sync.Once
	serial     []cbir.Match
}

func newCBIR() *cbirFig14 {
	const images = 500
	return &cbirFig14{
		images: images, topK: 10,
		tiles: []int{1, 2, 4, 8, 16, 32},
		chips: []*arch.Chip{arch.Gx8036(), arch.Pro64()},
		p:     cbir.DefaultParams(),
	}
}

// cbirPoint is one sim's virtual result.
type cbirPoint struct {
	Chip      string       `json:"chip"`
	Tiles     int          `json:"tiles"`
	ElapsedPs int64        `json:"elapsed_ps"`
	Top       []cbir.Match `json:"top"`
	makespan  float64      // us, for sim.makespan_us
}

func (c *cbirFig14) Name() string              { return "cbir-fig14" }
func (c *cbirFig14) MaxOps() int               { return 1 }
func (c *cbirFig14) SimsPerOp(rec *record) int { return len(c.chips) * len(c.tiles) }

// Warmup also runs a small distributed CBIR under other parameters, so
// its features can never be the timed images' features.
func (c *cbirFig14) Warmup() error {
	if err := warmKernels(); err != nil {
		return err
	}
	p := cbir.Params{Size: 32, Colors: 16, Dists: []int{1, 3}}
	_, _, err := c.point(arch.Gx8036(), 4, 16, p, false)
	return err
}

func (c *cbirFig14) Op(sp *spanLog) (any, error) {
	pts, _, err := c.pass(sp, false)
	return pts, err
}

func (c *cbirFig14) pass(sp *spanLog, observe bool) ([]cbirPoint, simCounts, error) {
	var pts []cbirPoint
	var sc simCounts
	for _, chip := range c.chips {
		for _, t := range c.tiles {
			var rep *core.Report
			var pt cbirPoint
			err := sp.do("launch", true, func() (err error) {
				pt, rep, err = c.point(chip, t, c.images, c.p, observe)
				return err
			})
			if err != nil {
				return pts, sc, fmt.Errorf("%s at %d tiles: %w", chip.Name, t, err)
			}
			pts = append(pts, pt)
			sc.Sims++
			sc.MakespanSims++
			sc.MakespanUs += pt.makespan
			if observe {
				sc.add(rep.Stats())
			}
		}
	}
	return pts, sc, nil
}

// point launches one Figure 14 sim, sized like the figure's own runner.
func (c *cbirFig14) point(chip *arch.Chip, tiles, images int, p cbir.Params, observe bool) (cbirPoint, *core.Report, error) {
	cfg := core.Config{Chip: chip, NPEs: tiles, HeapPerPE: cbir.BlockBytes(images, tiles, p) + 1<<20, Observe: observe}
	var res cbir.Result
	rep, err := core.Run(cfg, func(pe *core.PE) error {
		r, err := cbir.Distributed(pe, images, images/2, c.topK, p)
		if err == nil && pe.MyPE() == 0 {
			res = r
		}
		return err
	})
	if err != nil {
		return cbirPoint{}, nil, err
	}
	return cbirPoint{Chip: chip.Name, Tiles: tiles, ElapsedPs: int64(res.Elapsed), Top: res.Top, makespan: rep.MaxTime.Us()}, rep, nil
}

func (c *cbirFig14) Keep(i int, out any) any { return out }

// Check compares the pass with the record, the serial ranking and the
// figure's shape.
func (c *cbirFig14) Check(i int, kept any, rec *record) error {
	pts := kept.([]cbirPoint)
	if err := comparePoints(pts, rec.CBIR.Points); err != nil {
		return err
	}
	query := c.images / 2
	c.serialOnce.Do(func() { c.serial = serialRanking(c.images, query, c.topK, c.p) })
	for _, pt := range pts {
		if err := sameRanking(pt.Top, c.serial); err != nil {
			return fmt.Errorf("%s at %d tiles: %w", pt.Chip, pt.Tiles, err)
		}
	}
	if len(c.serial) == 0 || c.serial[0].ID != query || c.serial[0].Distance != 0 {
		return fmt.Errorf("the query is not its own nearest match at distance 0: %v", c.serial)
	}
	return c.checkShape(pts)
}

func comparePoints(got, want []cbirPoint) error {
	if len(got) != len(want) {
		return fmt.Errorf("pass has %d points, record.json %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Chip != w.Chip || g.Tiles != w.Tiles || g.ElapsedPs != w.ElapsedPs || !matchesEqual(g.Top, w.Top) {
			return fmt.Errorf("%s at %d tiles differs from record.json: elapsed %d ps (recorded %d), top %v (recorded %v)",
				g.Chip, g.Tiles, g.ElapsedPs, w.ElapsedPs, g.Top, w.Top)
		}
	}
	return nil
}

func matchesEqual(a, b []cbir.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameRanking(got, want []cbir.Match) error {
	if len(got) != len(want) {
		return fmt.Errorf("top-%d has %d matches", len(want), len(got))
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Abs(got[i].Distance-want[i].Distance) > 1e-9 {
			return fmt.Errorf("rank %d is image %d at %g, serial ranking has %d at %g",
				i, got[i].ID, got[i].Distance, want[i].ID, want[i].Distance)
		}
	}
	return nil
}

// checkShape asserts Figure 14's findings on the pass's virtual times.
func (c *cbirFig14) checkShape(pts []cbirPoint) error {
	el := map[string]map[int]float64{}
	for _, pt := range pts {
		if el[pt.Chip] == nil {
			el[pt.Chip] = map[int]float64{}
		}
		el[pt.Chip][pt.Tiles] = float64(pt.ElapsedPs)
	}
	gx, pro := c.chips[0].Name, c.chips[1].Name
	for _, chip := range []string{gx, pro} {
		for j := 1; j < len(c.tiles); j++ {
			if !(el[chip][c.tiles[j]] < el[chip][c.tiles[j-1]]) {
				return fmt.Errorf("%s: virtual time does not fall from %d to %d tiles", chip, c.tiles[j-1], c.tiles[j])
			}
		}
	}
	if s := el[gx][1] / el[gx][16]; s < 12 {
		return fmt.Errorf("%s speedup at 16 tiles is %.2f, below 12", gx, s)
	}
	for _, t := range c.tiles {
		if !(el[gx][t] < el[pro][t]) {
			return fmt.Errorf("at %d tiles %s (%g ps) is not faster than %s (%g ps)", t, gx, el[gx][t], pro, el[pro][t])
		}
	}
	return nil
}

func (c *cbirFig14) Observe(rec *record) (simCounts, error) {
	pts, sc, err := c.pass(nil, true)
	if err != nil {
		return sc, err
	}
	if err := comparePoints(pts, rec.CBIR.Points); err != nil {
		return sc, fmt.Errorf("observed pass: %w", err)
	}
	return sc, nil
}

// serialRanking ranks the corpus against the query without SHMEM and
// with the benchmark's own autocorrelogram, so the distributed result
// is checked against an independent computation of the same images.
func serialRanking(images, query, k int, p cbir.Params) []cbir.Match {
	feats := make([][]float32, images)
	for id := range feats {
		feats[id] = correlogram(cbir.SynthImage(id, p), p)
	}
	q := correlogram(cbir.SynthImage(query, p), p)
	all := make([]cbir.Match, images)
	for id, f := range feats {
		var d float64
		for i := range f {
			d += math.Abs(float64(f[i] - q[i]))
		}
		all[id] = cbir.Match{ID: id, Distance: d}
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].Distance < all[b].Distance })
	return all[:k]
}

// correlogram is the autocorrelogram of Huang et al.: for color c and
// distance d, the share of the eight L-infinity ring points at d around
// color-c pixels that are also color c.
func correlogram(img []uint8, p cbir.Params) []float32 {
	n, nd := p.Size, len(p.Dists)
	match := make([]uint32, p.Colors*nd)
	total := make([]uint32, p.Colors*nd)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			c := int(img[y*n+x])
			for di, d := range p.Dists {
				for _, o := range [8][2]int{{d, 0}, {-d, 0}, {0, d}, {0, -d}, {d, d}, {d, -d}, {-d, d}, {-d, -d}} {
					nx, ny := x+o[0], y+o[1]
					if nx < 0 || nx >= n || ny < 0 || ny >= n {
						continue
					}
					total[c*nd+di]++
					if int(img[ny*n+nx]) == c {
						match[c*nd+di]++
					}
				}
			}
		}
	}
	f := make([]float32, len(match))
	for i := range f {
		if total[i] > 0 {
			f[i] = float32(match[i]) / float32(total[i])
		}
	}
	return f
}
