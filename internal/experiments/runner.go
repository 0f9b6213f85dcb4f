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
// RunExperiments plans the experiments, each as the cubes of cells it
// reads and one build (cube.go), lists every cube's cells without
// simulating, runs the cells no earlier run memoized (deduped by cell
// ID) on a bounded worker pool, then fills each experiment's cubes from
// the completed cell map and builds it once. Because the builds run
// sequentially against final results, the rendered tables are
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

	mu     sync.Mutex
	sup    SupervisionCounts
	cache  map[string]cellResult
	builds map[cellSlot]*builtSlot

	progressMu sync.Mutex
}

// NewRunner builds a runner at the given problem scale.
func NewRunner(scale kernels.Scale) *Runner {
	return &Runner{Scale: scale, cache: map[string]cellResult{}, builds: map[cellSlot]*builtSlot{}}
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

// execute simulates cells on a pool of `jobs` workers and returns
// per-cell timings in listing order. Results (including failures) land
// in the cell cache keyed by cell ID, so completion order cannot
// influence anything downstream.
func (r *Runner) execute(cells []DeclaredCell, jobs int) []CellTiming {
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

// plan plans exps and lists their cells. It returns, per experiment,
// the function that fills its cubes from the memo and builds it, and
// the cells no earlier run memoized, deduplicated by cell ID, in
// listing order.
func (r *Runner) plan(exps []Experiment) ([]func() ([]Table, any, error), []DeclaredCell) {
	r.mu.Lock()
	defer r.mu.Unlock()
	builds := make([]func() ([]Table, any, error), len(exps))
	var fresh []DeclaredCell
	seen := map[string]bool{}
	for i, e := range exps {
		cubes, build := e.plan(r)
		for _, c := range cubes {
			r.list(c, func(id string, s *cellSpec) {
				if _, done := r.cache[id]; !done && !seen[id] {
					fresh = append(fresh, DeclaredCell{Key: id, Label: s.label, spec: *s})
				}
				seen[id] = true
			})
		}
		builds[i] = func() ([]Table, any, error) {
			for _, c := range cubes {
				if err := r.fill(c); err != nil {
					return nil, nil, fmt.Errorf("%s: %w", e.Name, err)
				}
			}
			ts, x := build()
			return ts, x, nil
		}
	}
	return builds, fresh
}

// RunExperiments executes exps as a list/schedule/build pipeline:
// every cell the experiments' cubes list is collected up front, deduped
// across experiments, simulated on `jobs` parallel workers, and each
// experiment is then built once, sequentially, from the completed cell
// map.
//
// Determinism guarantee: the returned tables are byte-identical (once
// rendered) for any jobs >= 1. A failed cell fails the first experiment
// that reads it, with an error naming the experiment and the cell,
// unless a grid reads it quarantined (see fill).
//
// The timings cover the freshly simulated cells in listing order.
func (r *Runner) RunExperiments(exps []Experiment, jobs int) ([][]Table, []CellTiming, error) {
	builds, fresh := r.plan(exps)
	timings := r.execute(fresh, jobs)
	tables := make([][]Table, len(exps))
	for i, build := range builds {
		ts, _, err := build()
		if err != nil {
			return nil, timings, err
		}
		tables[i] = ts
	}
	return tables, timings, nil
}

// Exports returns the export of each experiment in exps that has one,
// keyed by experiment name. Call it after RunExperiments(exps): the
// rows are rebuilt from the memoized cells, and a cell that was never
// run fails it.
func (r *Runner) Exports(exps []Experiment) (map[string]any, error) {
	builds, _ := r.plan(exps)
	out := map[string]any{}
	for i, build := range builds {
		_, x, err := build()
		if err != nil {
			return nil, err
		}
		if x != nil {
			out[exps[i].Name] = x
		}
	}
	return out, nil
}

func classOf(cl int) isa.Class { return isa.Class(cl) }
