package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernels"
)

// A grid is a per-kernel table as data: a row per kernel, a column per
// configuration. Its typed rows (Grid) are what the table renders from,
// -json exports and the paper claims (claims_test.go) read.
type grid struct {
	title   string
	kernels func() []*kernels.Benchmark
	cols    []column
	notes   []string
}

// column is one grid column. It runs the row's kernel, built with
// params, under r.config(threads) edited by set (so a set that picks the
// fetch policy overrides a sweep's -fetch), or, as a view, reuses the
// cell of column `of`. It shows its metric of the cell, cycles if unset.
// A grid's cells are its kernels × its non-view columns.
type column struct {
	header  string
	threads int
	set     func(*core.Config)
	params  kernels.Params
	view    bool
	of      int
	metric  *metric
}

func view(header string, of int, m metric) column {
	return column{header: header, view: true, of: of, metric: &m}
}

func (c column) shows() metric {
	if c.metric == nil {
		return cycleCount
	}
	return *c.metric
}

// metric is a number read from a cell and its format. A relative metric
// shows it against the same number of the row's first cell (base).
type metric struct {
	read     func(*core.Stats) float64
	show     func(v, base float64) string
	relative bool
}

func count(v, _ float64) string { return fmt.Sprint(uint64(v)) }

var (
	cycleCount = metric{read: func(st *core.Stats) float64 { return float64(st.Cycles) }, show: count}
	suStalls   = metric{read: func(st *core.Stats) float64 { return float64(st.SUStalls) }, show: count}
	iStalls    = metric{read: func(st *core.Stats) float64 { return float64(st.ICacheStalls) }, show: count}
	forwarded  = metric{read: func(st *core.Stats) float64 { return float64(st.LoadsForwarded) }, show: count}
	fetchFill  = metric{read: func(st *core.Stats) float64 { return float64(st.FetchedInsts) / float64(st.FetchedBlocks) },
		show: func(v, _ float64) string { return fmt.Sprintf("%.2f", v) }}
	slowdownPct = metric{read: cycleCount.read, relative: true,
		show: func(v, base float64) string { return fmt.Sprintf("%.1f", 100*(v/base-1)) }}
	accuracyVsFirst = metric{read: func(st *core.Stats) float64 { return st.Branch.Accuracy() }, relative: true,
		show: func(v, base float64) string { return fmt.Sprintf("%.1f/%.1f", 100*base, 100*v) }}
)

// Grid is one grid table's typed rows.
type Grid struct {
	Title   string    `json:"title"`
	Columns []string  `json:"columns"`
	Rows    []GridRow `json:"rows"`
}

// GridRow is one kernel's readings, one per column.
type GridRow struct {
	Kernel   string    `json:"kernel"`
	Readings []Reading `json:"readings"`
}

// Reading is a column's metric of its cell (and, if relative, of the
// row's first cell), or none when either cell is quarantined.
type Reading struct {
	Value       float64 `json:"value"`
	Base        float64 `json:"base,omitempty"`
	Quarantined bool    `json:"quarantined,omitempty"`
}

// edit is the column's point on its grid's column axis.
func (c column) edit(s *cellSpec) {
	s.cfg.Threads, s.slots[0].Params = c.threads, c.params
	if c.set != nil {
		c.set(&s.cfg)
	}
}

// grids are the grid tables of one experiment.
type grids []grid

// plan returns a cube per grid, and the function that reads every
// grid's rows from them, row by row. A quarantined cell has no reading.
func (gs grids) plan(*Runner) ([]*cube, func() []Grid) {
	cubes := make([]*cube, len(gs))
	for k, g := range gs {
		var cols axis
		for _, c := range g.cols {
			if !c.view {
				cols = append(cols, c.edit)
			}
		}
		cubes[k] = &cube{axes: []axis{onKernels(g.kernels()), cols}, grid: true}
	}
	return cubes, func() []Grid {
		out := make([]Grid, len(gs))
		for k, g := range gs {
			out[k].Title = g.title
			for _, c := range g.cols {
				out[k].Columns = append(out[k].Columns, c.header)
			}
			for b, bench := range g.kernels() {
				row := GridRow{Kernel: bench.Name}
				cells := make([]*core.Stats, len(g.cols)) // nil: quarantined
				j := 0
				for i, c := range g.cols {
					if c.view {
						cells[i] = cells[c.of]
					} else {
						cells[i] = cubes[k].at(b, j)
						j++
					}
					m := c.shows()
					rd := Reading{Quarantined: cells[i] == nil || (m.relative && cells[0] == nil)}
					if !rd.Quarantined {
						rd.Value = m.read(cells[i])
						if m.relative {
							rd.Base = m.read(cells[0])
						}
					}
					row.Readings = append(row.Readings, rd)
				}
				out[k].Rows = append(out[k].Rows, row)
			}
		}
		return out
	}
}

// tables renders rows, which gs.plan read.
func (gs grids) tables(rows []Grid) []Table {
	ts := make([]Table, len(gs))
	for k, g := range gs {
		ts[k] = Table{Title: g.title, Headers: append([]string{"Benchmark"}, rows[k].Columns...), Notes: g.notes}
		for _, row := range rows[k].Rows {
			cells := []string{row.Kernel}
			for i, rd := range row.Readings {
				s := "QUARANTINED"
				if !rd.Quarantined {
					s = g.cols[i].shows().show(rd.Value, rd.Base)
				}
				cells = append(cells, s)
			}
			ts[k].Rows = append(ts[k].Rows, cells)
		}
	}
	return ts
}

// rowsExperiment is a registry entry whose build makes typed rows from
// its cubes, exports them, and renders its tables from them.
func rowsExperiment[T any](name, title string, plan func(*Runner) ([]*cube, func() T), render func(T) []Table) Experiment {
	return Experiment{name, title, func(r *Runner) ([]*cube, build) {
		cubes, rows := plan(r)
		return cubes, func() ([]Table, any) {
			x := rows()
			return render(x), x
		}
	}}
}

// figure is a one-grid experiment over a kernel group.
func figure(name, title, caption string, group func() []*kernels.Benchmark, cols []column) Experiment {
	gs := grids{{title: caption, kernels: group, cols: cols}}
	return rowsExperiment(name, title, gs.plan, gs.tables)
}
