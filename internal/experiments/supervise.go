package experiments

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// This file is the runner's supervision layer: every cell the pipeline
// executes goes list → store-lookup → supervised-simulate →
// atomic-commit. Supervision runs a cell at most once and adds two
// failure behaviors on top of the bare run closure:
//
//   - a per-cell wall-clock timeout (Runner.CellTimeout), distinct from
//     the in-machine watchdog: the watchdog catches a wedged *machine*
//     in simulated time, the timeout catches a wedged *simulation* in
//     host time;
//   - quarantine: a cell that fails with a *core.MachineError is
//     poisoned on that first failure. The simulator is deterministic
//     and a cell ID names everything the cell simulates, so a rerun
//     would fail the same way at twice the cost, and a rerun that
//     succeeded would be a determinism bug, not a result to commit.
//     The verdict is recorded (durably, when a store is mounted),
//     surfaces in a grid table as an explicit QUARANTINED entry, and
//     is never silently dropped or allowed to hang a sweep.

// QuarantinedError marks a cell that failed deterministically: a
// machine error, which every rerun of the cell would repeat. The runner
// fills a grid's cube with the cell as nil, and the grid's table renders
// it, and a column relative to it, as QUARANTINED. Any other cube (the
// averages, the summary, improvement 4, compiler, the studies) fails its
// experiment on it: an aggregate over a missing cell would be silently
// wrong. See Runner.fill.
type QuarantinedError struct {
	Key    string
	Label  string
	Reason string // the machine error, rendered
	Bundle string // crash-report bundle dir, when CrashDir was set
}

func (e *QuarantinedError) Error() string {
	s := fmt.Sprintf("cell %s quarantined after a deterministic machine failure: %s", e.Label, e.Reason)
	if e.Bundle != "" {
		s += fmt.Sprintf("\nquarantine bundle: %s (reproduce: sdsp-sim -replay %s)", e.Bundle, e.Bundle)
	}
	return s
}

// CellTimeoutError reports a cell exceeding Runner.CellTimeout.
type CellTimeoutError struct {
	Label   string
	Timeout time.Duration
}

func (e *CellTimeoutError) Error() string {
	return fmt.Sprintf("cell %s exceeded its %v wall-clock budget (raise -cell-timeout, or inspect the cell with -v)", e.Label, e.Timeout)
}

// cellError carries the crash-bundle directory alongside a cell's run
// failure, so the supervisor can attach it to a quarantine record
// without parsing error text.
type cellError struct {
	err    error
	bundle string
}

func (e *cellError) Error() string { return e.err.Error() }
func (e *cellError) Unwrap() error { return e.err }

// SupervisionCounts aggregates the supervisor's interventions.
// Deterministic for a deterministic workload, independent of -j.
type SupervisionCounts struct {
	Quarantines uint64 `json:"quarantines"` // cells newly quarantined this run
	Timeouts    uint64 `json:"timeouts"`    // cells killed by the wall-clock budget
}

// StoreReport is the -json export of the persistence and supervision
// counters: hits, misses, repairs, quarantines, timeouts — the numbers
// that make degradation observable instead of silent.
type StoreReport struct {
	Dir string `json:"dir,omitempty"` // empty when no store is mounted
	store.Stats
	SupervisionCounts
}

// StoreReport snapshots the persistence + supervision counters. Valid
// after RunExperiments returns.
func (r *Runner) StoreReport() StoreReport {
	rep := StoreReport{}
	if r.Store != nil {
		rep.Dir = r.Store.Dir()
		rep.Stats = r.Store.Stats()
	}
	r.mu.Lock()
	rep.SupervisionCounts = r.sup
	r.mu.Unlock()
	return rep
}

// cellOutcome is what supervision hands back to the scheduler for one
// cell: the result plus provenance for the timing/JSON reports.
type cellOutcome struct {
	st     *core.Stats
	err    error
	source string // "sim", "store", or "quarantined"
}

// countSup bumps one supervision counter under the runner lock.
func (r *Runner) countSup(f func(*SupervisionCounts)) {
	r.mu.Lock()
	f(&r.sup)
	r.mu.Unlock()
}

// superviseCell executes one cell under the full supervision contract.
// It is called exactly once per deduplicated cell, by ExecuteDeclared,
// which memoizes the outcome.
func (r *Runner) superviseCell(key, label string, run func() (*core.Stats, error)) cellOutcome {
	if r.Store != nil {
		// A verified record is a successful run of this exact cell, so it
		// outranks a quarantine verdict, and a hit costs no quarantine probe.
		if st, ok := r.Store.Get(key); ok {
			return cellOutcome{st: st, source: "store"}
		}
		if q, ok := r.Store.Quarantined(key); ok {
			return cellOutcome{
				err:    &QuarantinedError{Key: key, Label: q.Label, Reason: q.Reason, Bundle: q.Bundle},
				source: "quarantined",
			}
		}
		// No claim is taken: a sweep racing another process on this cell
		// simulates it too and relies on the idempotent commit. Waiting
		// could hang a sweep on a wedged peer — the exact failure mode
		// supervision exists to prevent.
	}

	st, err := r.runBounded(label, run)
	var me *core.MachineError
	var te *CellTimeoutError
	switch {
	case err == nil:
		r.commitCell(key, st)
		return cellOutcome{st: st, source: "sim"}
	case errors.As(err, &me):
		err = r.quarantine(key, label, err)
	case errors.As(err, &te):
		r.countSup(func(s *SupervisionCounts) { s.Timeouts++ })
	}
	// Anything else (a build error, a golden-validation mismatch)
	// surfaces as it is.
	return cellOutcome{err: err, source: "sim"}
}

// quarantine records a deterministically failing cell and returns the
// error table assembly will see.
func (r *Runner) quarantine(key, label string, err error) *QuarantinedError {
	qe := &QuarantinedError{Key: key, Label: label, Reason: err.Error()}
	var ce *cellError
	if errors.As(err, &ce) {
		qe.Bundle = ce.bundle
	}
	r.countSup(func(s *SupervisionCounts) { s.Quarantines++ })
	if r.Store != nil {
		// Persist so future sweeps (this process or any other) see the
		// verdict without paying for another failing simulation. A failed
		// write only costs that simulation.
		_ = r.Store.Quarantine(store.QuarantineEntry{
			Key: key, Label: label, Reason: qe.Reason, Bundle: qe.Bundle,
		})
	}
	r.progressf("%-8s QUARANTINED after a deterministic machine failure", label)
	return qe
}

// commitCell persists a successful cell — coverage-carrying cells
// included, now that cover.Set round-trips JSON by stable event name.
// Commit failures degrade to a diagnostic — the result is still
// returned from memory, and the only cost is a future recomputation.
func (r *Runner) commitCell(key string, st *core.Stats) {
	if r.Store == nil {
		return
	}
	_ = r.Store.Put(key, st) // Put logs its own diagnostics
}

// runBounded runs one simulation under the wall-clock budget. On
// timeout the simulation's goroutine is abandoned (Go cannot kill it);
// the machine's own MaxCycles/watchdog guards bound how long it can
// keep a core busy, and the sweep moves on immediately.
func (r *Runner) runBounded(label string, run func() (*core.Stats, error)) (*core.Stats, error) {
	if r.CellTimeout <= 0 {
		return run()
	}
	type result struct {
		st  *core.Stats
		err error
	}
	done := make(chan result, 1)
	go func() {
		st, err := run()
		done <- result{st, err}
	}()
	timer := time.NewTimer(r.CellTimeout)
	defer timer.Stop()
	select {
	case res := <-done:
		return res.st, res.err
	case <-timer.C:
		return nil, &CellTimeoutError{Label: label, Timeout: r.CellTimeout}
	}
}
