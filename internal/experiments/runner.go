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
	Attempts    int     `json:"attempts,omitempty"` // simulation attempts; 0 when no simulation ran
	Source      string  `json:"source,omitempty"`   // "sim", "store", or "quarantined"
}

// Runner executes benchmark × configuration cells with caching (many
// figures share cells, e.g. the 4-thread TrueRR default run) and golden
// validation of every simulated run.
//
// A Runner has two modes of operation:
//
//   - Direct: Run/RunWith simulate on the calling goroutine, memoized.
//     This is the historical sequential behavior.
//   - Pipelined: RunExperiments first replays the experiments in a
//     declaration pass that records every requested cell (deduped by
//     cell ID) without simulating, then executes the cells on a
//     bounded worker pool, then replays the experiments again to
//     assemble tables purely from the completed cell map. Because the
//     assembly pass runs sequentially against final results, the
//     rendered tables are byte-identical to the direct mode regardless
//     of worker count or completion order.
type Runner struct {
	Scale kernels.Scale
	// Progress, when non-nil, receives a line per fresh simulation. It
	// is invoked from worker goroutines during a parallel sweep, but
	// never concurrently (calls are serialized by the runner).
	Progress func(format string, args ...any)

	// Paranoid turns on per-cycle invariant checking for every cell
	// (sdsp-exp -paranoid): the full experiment suite then doubles as an
	// invariant stress test.
	Paranoid bool
	// Injector applies a deterministic fault schedule to every cell.
	// Schedules are stateless, so one injector is safely shared by all
	// parallel workers; its String() is folded into each cell ID. A
	// cell that sets its own injector keeps it.
	Injector core.FaultInjector
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
	// CellTimeout, when positive, bounds each simulation attempt's
	// wall-clock time; an over-budget cell fails with CellTimeoutError
	// instead of hanging the sweep.
	CellTimeout time.Duration
	// Retries bounds the supervisor's re-attempts of a cell that failed
	// transiently (store I/O, lock churn). Deterministic simulation
	// failures are never retried beyond the machine-error confirmation
	// run.
	Retries int

	// PhaseTiming stopwatches every cell's pipeline phases (sdsp-exp
	// -timing). Purely observational — stdout tables are unaffected —
	// and the aggregate is available from PhaseTotal after the run.
	PhaseTiming bool

	// Curves accumulates the degradation curves of the fault-sweep
	// experiment during table assembly, for the -json export. Read after
	// RunExperiments returns.
	Curves []DegradationCurve

	// Predictor overrides the branch predictor for every cell the
	// experiments request through config() (sdsp-exp -bpred). The zero
	// value is the paper's 2-bit counter, so the default is a no-op.
	Predictor core.PredictorKind
	// FetchOverride, when HasFetch is set, overrides the fetch policy for
	// every cell requested through config() (sdsp-exp -fetch). A bool
	// gate rather than a sentinel: TrueRR is a legitimate override.
	FetchOverride core.FetchPolicy
	HasFetch      bool

	// PredCells accumulates the predictor-study matrix during table
	// assembly, for the -json export. Read after RunExperiments returns.
	PredCells []PredCell

	// MixCells accumulates the mixstudy grid during table assembly, for
	// the -json export. Read after RunExperiments returns.
	MixCells []MixCell

	mu         sync.Mutex
	sup        SupervisionCounts
	cache      map[string]cellResult
	declaring  bool
	pending    []DeclaredCell
	pendingBy  map[string]bool
	phaseTotal core.PhaseTimes

	progressMu sync.Mutex
}

// PhaseTotal returns the wall-clock phase breakdown summed over every
// freshly simulated cell (all-zero unless PhaseTiming was set).
func (r *Runner) PhaseTotal() core.PhaseTimes {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.phaseTotal
}

// recordCurve appends a degradation curve unless the runner is in the
// declaration pass (whose tables — and curves — are discarded).
func (r *Runner) recordCurve(c DegradationCurve) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.declaring {
		r.Curves = append(r.Curves, c)
	}
}

// NewRunner builds a runner at the given problem scale.
func NewRunner(scale kernels.Scale) *Runner {
	return &Runner{
		Scale:     scale,
		cache:     map[string]cellResult{},
		pendingBy: map[string]bool{},
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

// recordPredCell appends a predictor-study cell unless the runner is in
// the declaration pass (whose tables — and cells — are discarded).
func (r *Runner) recordPredCell(c PredCell) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.declaring {
		r.PredCells = append(r.PredCells, c)
	}
}

// recordMixCell appends a mixstudy cell unless the runner is in the
// declaration pass (whose tables — and cells — are discarded).
func (r *Runner) recordMixCell(c MixCell) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.declaring {
		r.MixCells = append(r.MixCells, c)
	}
}

// config returns the paper-default configuration for n threads, with
// the runner's frontend overrides applied.
func (r *Runner) config(n int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Threads = n
	cfg.Predictor = r.Predictor
	if r.HasFetch {
		cfg.FetchPolicy = r.FetchOverride
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

// runCell is the single entry point for all simulation work. It applies
// the runner's -paranoid, -timing and -fault overrides to c, names it
// by cellID, and returns the memoized result; in declaration mode a
// fresh cell is recorded and answered with a placeholder, otherwise it
// runs on the calling goroutine.
func (r *Runner) runCell(c cellSpec) (*core.Stats, error) {
	c.cfg.CheckInvariants = c.cfg.CheckInvariants || r.Paranoid
	c.cfg.PhaseTiming = c.cfg.PhaseTiming || r.PhaseTiming
	if c.cfg.Injector == nil {
		c.cfg.Injector = r.Injector
	}
	id := cellID(c)
	r.mu.Lock()
	if res, ok := r.cache[id]; ok {
		r.mu.Unlock()
		return res.stats, res.err
	}
	if r.declaring {
		if !r.pendingBy[id] {
			r.pending = append(r.pending, DeclaredCell{Key: id, Label: c.label, spec: c})
			r.pendingBy[id] = true
		}
		r.mu.Unlock()
		return placeholderStats(c.cfg), nil
	}
	r.mu.Unlock()
	out := r.execute(DeclaredCell{Key: id, Label: c.label, spec: c})
	return out.st, out.err
}

// execute runs one cell under supervision and memoizes the outcome.
func (r *Runner) execute(c DeclaredCell) cellOutcome {
	out := r.superviseCell(c.Key, c.Label, func() (*core.Stats, error) { return r.simulate(c.Key, c.spec) })
	r.mu.Lock()
	r.cache[c.Key] = cellResult{out.st, out.err}
	r.mu.Unlock()
	return out
}

// Run simulates benchmark b under cfg (memoized) and validates the
// result against the benchmark's golden model. b must be a registered
// benchmark (kernels.Get finds it by name).
func (r *Runner) Run(b *kernels.Benchmark, cfg core.Config) (*core.Stats, error) {
	return r.RunWith(b, cfg, kernels.Params{})
}

// RunWith is Run with explicit benchmark build parameters (alignment,
// sync granularity) for the extension experiments.
func (r *Runner) RunWith(b *kernels.Benchmark, cfg core.Config, p kernels.Params) (*core.Stats, error) {
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
	r.pendingBy = map[string]bool{}
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
// rendered) to running each experiment directly on a fresh sequential
// runner, for any jobs >= 1. Should an experiment's control flow
// request a cell that the declaration pass did not predict, the cell is
// simulated synchronously during assembly — a performance fallback,
// never a correctness one.
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

func classOf(cl int) isa.Class { return isa.Class(cl) }
