package experiments

import (
	"fmt"
	"io"
	"sync"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/store"
)

// Table is a rendered experiment result: the rows/series of one paper
// figure or table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(tw, "\t")
			}
			fmt.Fprint(tw, c)
		}
		fmt.Fprintln(tw)
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// cellResult memoizes a completed cell, errors included, so a failing
// cell surfaces the same error at every experiment that requests it.
type cellResult struct {
	stats *core.Stats
	err   error
}

// CellTiming records the wall-clock cost and provenance of one
// scheduled cell.
type CellTiming struct {
	Key         string  `json:"key"` // the cell ID (cellID)
	Label       string  `json:"label"`
	WallSeconds float64 `json:"wall_seconds"`
	Cycles      uint64  `json:"cycles"` // simulated cycles; 0 if the cell failed
	Err         string  `json:"error,omitempty"`
	Source      string  `json:"source,omitempty"` // "sim", "store", or "quarantined"
}

// Runner executes benchmark × configuration cells with caching (many
// figures share cells, e.g. the 4-thread TrueRR default run) and golden
// validation of every simulated run.
//
// RunExperiments first replays the experiments in a declaration pass
// that records every requested cell (deduped by cell ID) without
// simulating, then executes the cells on a bounded worker pool, then
// replays the experiments again to assemble tables purely from the
// completed cell map. Assembly only serves memoized cells: a cell the
// declaration pass did not list fails the sweep. Because the assembly
// pass runs sequentially against final results, the rendered tables are
// byte-identical regardless of worker count or completion order.
type Runner struct {
	Scale kernels.Scale
	// Progress, when non-nil, receives a line per fresh simulation. It
	// is invoked from worker goroutines during a parallel sweep, but
	// never concurrently (calls are serialized by the runner).
	Progress func(format string, args ...any)

	// CrashDir, when non-empty, makes any cell that fails with a
	// *core.MachineError write a crash-report bundle (object, config,
	// fault spec, error) under this directory; the cell's error then
	// names the bundle and its sdsp-sim -replay command.
	CrashDir string

	// Store, when non-nil, is the persistent cell store (sdsp-exp
	// -store): committed cells are served without resimulation, fresh
	// successful cells are committed atomically, and quarantine verdicts
	// persist across processes. See superviseCell for the full contract.
	Store *store.Store
	// CellTimeout, when positive, bounds each cell simulation's
	// wall-clock time; an over-budget cell fails with CellTimeoutError
	// instead of hanging the sweep.
	CellTimeout time.Duration
	// Retries has no effect.
	//
	// Deprecated: supervision runs a cell at most once. The field stays
	// only because the benchmark harness (perfbench/sweep.go) sets it.
	Retries int

	// What every cell simulates beyond what its experiment asks for:
	// per-cycle invariant checking, a fault schedule (folded into each
	// cell ID by its String(); a cell that sets its own injector keeps
	// it), and the frontend overrides config() applies. Only a Sweep sets
	// them (see Sweep.NewRunner). A bool gates the fetch override rather
	// than a sentinel: TrueRR is a legitimate override.
	paranoid      bool
	injector      core.FaultInjector
	predictor     core.PredictorKind
	fetchOverride core.FetchPolicy
	hasFetch      bool

	mu        sync.Mutex
	sup       SupervisionCounts
	cache     map[string]cellResult
	builds    map[cellSlot]*builtSlot
	declaring bool
	pending   []DeclaredCell
	pendingBy map[string]*core.Stats // declared cell ID -> its placeholder

	progressMu sync.Mutex
}

// NewRunner builds a runner at the given problem scale.
func NewRunner(scale kernels.Scale) *Runner {
	return &Runner{
		Scale:     scale,
		cache:     map[string]cellResult{},
		builds:    map[cellSlot]*builtSlot{},
		pendingBy: map[string]*core.Stats{},
	}
}

// progressf emits one progress line, serializing concurrent workers.
func (r *Runner) progressf(format string, args ...any) {
	if r.Progress == nil {
		return
	}
	r.progressMu.Lock()
	defer r.progressMu.Unlock()
	r.Progress(format, args...)
}

// config returns the paper-default configuration for n threads, with
// the runner's frontend overrides applied.
func (r *Runner) config(n int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Threads = n
	cfg.Predictor = r.predictor
	if r.hasFetch {
		cfg.FetchPolicy = r.fetchOverride
	}
	return cfg
}

// placeholderStats is what a declared-but-not-yet-simulated cell returns
// during the declaration pass. The values are inert but safe: counters
// are 1 so no ratio divides by zero, and the slices are sized like a
// real run so assembly code may index them. Tables built from
// placeholders are discarded; only the assembly pass's tables survive.
func placeholderStats(cfg core.Config) *core.Stats {
	st := &core.Stats{Cycles: 1, Committed: 1, FetchedBlocks: 1, FetchedInsts: 1}
	st.CommittedByThread = make([]uint64, cfg.Threads)
	st.HaltCycleByThread = make([]uint64, cfg.Threads)
	for cl := range st.FUUsage {
		st.FUUsage[cl] = make([]uint64, cfg.FUs.Count[cl])
	}
	return st
}

// runCell is how every experiment requests a cell. It applies the
// runner's -paranoid and -fault overrides to c, names it by
// cellID, and returns the memoized result. In the declaration pass a
// fresh cell is recorded and answered with a placeholder, and a repeat
// gets the same placeholder (no experiment writes to a returned Stats);
// outside it a cell that was never declared is an error.
func (r *Runner) runCell(c cellSpec) (*core.Stats, error) {
	c.cfg.CheckInvariants = c.cfg.CheckInvariants || r.paranoid
	if c.cfg.Injector == nil {
		c.cfg.Injector = r.injector
	}
	id := cellID(c)
	r.mu.Lock()
	defer r.mu.Unlock()
	if res, ok := r.cache[id]; ok {
		return res.stats, res.err
	}
	if !r.declaring {
		return nil, fmt.Errorf("cell %s (%.12s) was requested but never declared", c.label, id)
	}
	st, ok := r.pendingBy[id]
	if !ok {
		st = placeholderStats(c.cfg)
		r.pending = append(r.pending, DeclaredCell{Key: id, Label: c.label, spec: c})
		r.pendingBy[id] = st
	}
	return st, nil
}

// run requests benchmark b under cfg, validated against the benchmark's
// golden model. b must be a registered benchmark (kernels.Get finds it
// by name).
func (r *Runner) run(b *kernels.Benchmark, cfg core.Config) (*core.Stats, error) {
	return r.runWith(b, cfg, kernels.Params{})
}

// runWith is run with explicit benchmark build parameters (alignment,
// sync granularity) for the extension experiments.
func (r *Runner) runWith(b *kernels.Benchmark, cfg core.Config, p kernels.Params) (*core.Stats, error) {
	p.Threads, p.Scale = cfg.Threads, r.Scale
	return r.runCell(cellSpec{label: b.Name, cfg: cfg,
		slots: []cellSlot{{Threads: cfg.Threads, Kernel: b.Name, Params: p}}})
}

// declare replays exps with the runner in declaration mode, recording
// the deduplicated cell set each experiment will need.
func (r *Runner) declare(exps []Experiment) error {
	r.mu.Lock()
	r.declaring = true
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.declaring = false
		r.mu.Unlock()
	}()
	for _, e := range exps {
		if _, err := e.Run(r); err != nil {
			return fmt.Errorf("declaring %s: %w", e.Name, err)
		}
	}
	return nil
}

// takePending consumes the declared cell list.
func (r *Runner) takePending() []DeclaredCell {
	r.mu.Lock()
	defer r.mu.Unlock()
	cells := r.pending
	r.pending = nil
	r.pendingBy = map[string]*core.Stats{}
	return cells
}

// executePending simulates every declared cell on a pool of `jobs`
// workers and returns per-cell timings in declaration order. Results
// (including failures) land in the cell cache keyed by cell ID, so
// completion order cannot influence anything downstream.
func (r *Runner) executePending(jobs int) []CellTiming {
	cells := r.takePending()
	if len(cells) == 0 {
		return nil
	}
	if jobs < 1 {
		jobs = 1
	}
	if jobs > len(cells) {
		jobs = len(cells)
	}
	timings := make([]CellTiming, len(cells))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				// A failed cell's error is also in its timing's Err.
				timings[i], _ = r.ExecuteDeclared(cells[i])
			}
		}()
	}
	for i := range cells {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return timings
}

// RunExperiments executes exps as a declare/schedule/assemble pipeline:
// every cell the experiments request is collected up front, deduped
// across experiments, simulated on `jobs` parallel workers, and the
// tables are then assembled sequentially from the completed cell map.
//
// Determinism guarantee: the returned tables are byte-identical (once
// rendered) for any jobs >= 1. An experiment whose assembly requests a
// cell its declaration pass did not list fails with an error naming the
// experiment and the cell.
//
// The timings cover the freshly simulated cells in declaration order.
func (r *Runner) RunExperiments(exps []Experiment, jobs int) ([][]Table, []CellTiming, error) {
	if err := r.declare(exps); err != nil {
		return nil, nil, err
	}
	timings := r.executePending(jobs)
	tables := make([][]Table, len(exps))
	for i, e := range exps {
		ts, err := e.Run(r)
		if err != nil {
			return nil, timings, fmt.Errorf("%s: %w", e.Name, err)
		}
		tables[i] = ts
	}
	return tables, timings, nil
}

// Exports returns the export of each experiment in exps that has one,
// keyed by experiment name. Call it after RunExperiments(exps): the
// rows are rebuilt from the memoized cells.
func (r *Runner) Exports(exps []Experiment) (map[string]any, error) {
	out := map[string]any{}
	for _, e := range exps {
		if e.Export == nil {
			continue
		}
		v, err := e.Export(r)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		out[e.Name] = v
	}
	return out, nil
}

func classOf(cl int) isa.Class { return isa.Class(cl) }
