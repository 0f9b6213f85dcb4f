package experiments

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/kernels"
)

// An experiment's cells are cubes. A cube is the product of its axes,
// and each point of an axis is an edit of a cell. The runner lists a
// cube's cells without running anything, runs the ones no earlier run
// memoized, and fills the cube from its memo; an experiment's build then
// reads the cells by their coordinates.

// axis is one dimension of a cube: one edit per point.
type axis []func(*cellSpec)

// along is the axis whose points edit a cell by set, one per value.
func along[T any](vs []T, set func(*cellSpec, T)) axis {
	a := make(axis, len(vs))
	for i, v := range vs {
		a[i] = func(c *cellSpec) { set(c, v) }
	}
	return a
}

// configs is the axis whose points edit a cell's configuration.
func configs(sets ...func(*core.Config)) axis {
	return along(sets, func(c *cellSpec, set func(*core.Config)) { set(&c.cfg) })
}

// runKernel makes the cell's slot run the paper kernel name.
func runKernel(c *cellSpec, name string) { c.label, c.slots[0].Kernel = name, name }

func setThreads(c *cellSpec, n int)                  { c.cfg.Threads = n }
func setPolicy(c *cellSpec, p core.FetchPolicy)      { c.cfg.FetchPolicy = p }
func setPredictor(c *cellSpec, p core.PredictorKind) { c.cfg.Predictor = p }

// onKernels is the axis of the paper kernels bs.
func onKernels(bs []*kernels.Benchmark) axis {
	return along(bs, func(c *cellSpec, b *kernels.Benchmark) { runKernel(c, b.Name) })
}

// cube is the product of its axes, the last axis varying fastest. Each
// cell starts as r.config(defaultThreads) running one empty slot and
// takes one point of each axis, in axis order; a cell its edits leave
// with no slot is a hole. Runner.list names the cells, Runner.fill reads
// them from the memo.
type cube struct {
	axes []axis
	// grid marks a grid's cube: a quarantined cell reads as nil, and
	// the grid's table renders it QUARANTINED. In any other cube it
	// fails the experiment.
	grid   bool
	points []point
}

// point is one cell of a cube: its ID ("" for a hole), its label and,
// once filled, its Stats.
type point struct {
	id, label string
	st        *core.Stats
}

func newCube(axes ...axis) *cube { return &cube{axes: axes} }

// index is the position of the cell at coordinates i, one per axis.
func (c *cube) index(i ...int) int {
	k := 0
	for a, x := range i {
		k = k*len(c.axes[a]) + x
	}
	return k
}

// at returns the filled cell at coordinates i: nil for a hole or a
// quarantined grid cell.
func (c *cube) at(i ...int) *core.Stats { return c.points[c.index(i...)].st }

// list names every cell of c and hands each to each. After its edits a
// cell takes what every cell simulates: a lone slot runs all of the
// cell's threads, a kernel is built for its slot's threads at the
// runner's scale, and the runner's -paranoid and -fault apply (a cell
// that sets its own injector keeps it). Only c's IDs and labels stay:
// a spec each keeps is its own.
func (r *Runner) list(c *cube, each func(id string, s *cellSpec)) {
	n := 1
	for _, a := range c.axes {
		n *= len(a)
	}
	c.points = make([]point, n)
	at := make([]int, len(c.axes))
	for k := range c.points {
		s := cellSpec{cfg: r.config(defaultThreads), slots: []cellSlot{{}}}
		for a, i := range at {
			c.axes[a][i](&s)
		}
		if len(s.slots) > 0 {
			if len(s.slots) == 1 {
				s.slots[0].Threads = s.cfg.Threads
			}
			for i := range s.slots {
				if sl := &s.slots[i]; sl.Kernel != "" {
					sl.Params.Threads, sl.Params.Scale = sl.Threads, r.Scale
				}
			}
			s.cfg.CheckInvariants = s.cfg.CheckInvariants || r.paranoid
			if s.cfg.Injector == nil {
				s.cfg.Injector = r.injector
			}
			c.points[k] = point{id: cellID(s), label: s.label}
			each(c.points[k].id, &s)
		}
		for a := len(at) - 1; a >= 0; a-- {
			if at[a]++; at[a] < len(c.axes[a]) {
				break
			}
			at[a] = 0
		}
	}
}

// fill reads c's cells from the memo. This is where the quarantine rule
// lives: a grid's cube takes a quarantined cell as nil, and any other
// failed cell, or one never run, fails the experiment.
func (r *Runner) fill(c *cube) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k := range c.points {
		p := &c.points[k]
		if p.id == "" {
			continue
		}
		res, ok := r.cache[p.id]
		var qe *QuarantinedError
		switch {
		case !ok:
			return fmt.Errorf("cell %s (%.12s) was never run", p.label, p.id)
		case res.err != nil && !(c.grid && errors.As(res.err, &qe)):
			return res.err
		}
		p.st = res.stats
	}
	return nil
}
