package experiments

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// This file is the runner's supervision layer: every cell the pipeline
// executes goes declare → store-lookup → supervised-simulate →
// atomic-commit. Supervision adds three failure behaviors on top of the
// bare run closure:
//
//   - a per-cell wall-clock timeout (Runner.CellTimeout), distinct from
//     the in-machine watchdog: the watchdog catches a wedged *machine*
//     in simulated time, the timeout catches a wedged *simulation* in
//     host time;
//   - bounded retry with exponential backoff for transient failures
//     (store I/O, lock contention) — deterministic simulation failures
//     are never blindly retried;
//   - quarantine: a cell that fails with a *core.MachineError twice in
//     a row is deterministically poisoned. It is recorded (durably,
//     when a store is mounted), surfaces in table assembly as an
//     explicit QUARANTINED entry, and is never silently dropped or
//     allowed to hang a sweep.

// QuarantinedError marks a cell that failed deterministically: two
// consecutive machine errors. Table assembly renders it as a
// QUARANTINED entry (see CellValue); experiments that cannot represent
// a missing cell (group averages) propagate it and fail the sweep
// loudly instead.
type QuarantinedError struct {
	Key    string
	Label  string
	Reason string // the confirmed machine error, rendered
	Bundle string // crash-report bundle dir, when CrashDir was set
}

func (e *QuarantinedError) Error() string {
	s := fmt.Sprintf("cell %s quarantined after two deterministic machine failures: %s", e.Label, e.Reason)
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
	Retries     uint64 `json:"retries"`     // re-attempts (transient + machine-error confirmation)
	Quarantines uint64 `json:"quarantines"` // cells newly quarantined this run
	Timeouts    uint64 `json:"timeouts"`    // cells killed by the wall-clock budget
}

// StoreReport is the -json export of the persistence and supervision
// counters: hits, misses, repairs, retries, quarantines — the numbers
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

// CellValue renders one table cell from a completed cell's result: the
// supplied rendering on success, the explicit QUARANTINED marker for a
// quarantined cell, or the error itself (failing the sweep) for
// anything else. The per-kernel cycle figures (Figs 3–6, 9–12) route
// through it via cycleCell, so a poisoned cell there is a visible table
// entry. Every other builder (group averages, figs 13/14, the
// ablations, improvements, hwablations, compiler and the studies)
// propagates a quarantined cell's error and fails the sweep instead.
func CellValue(st *core.Stats, err error, render func(*core.Stats) string) (string, error) {
	var qe *QuarantinedError
	if errors.As(err, &qe) {
		return "QUARANTINED", nil
	}
	if err != nil {
		return "", err
	}
	return render(st), nil
}

// cellOutcome is what supervision hands back to the scheduler for one
// cell: the result plus provenance for the timing/JSON reports.
type cellOutcome struct {
	st       *core.Stats
	err      error
	attempts int    // simulation attempts (0 when served from store/quarantine)
	source   string // "sim", "store", or "quarantined"
}

// countSup bumps one supervision counter under the runner lock.
func (r *Runner) countSup(f func(*SupervisionCounts)) {
	r.mu.Lock()
	f(&r.sup)
	r.mu.Unlock()
}

// retryBackoff is the sleep before transient re-attempt n (1-based):
// exponential from 10ms, capped at 200ms. Host-time only; it cannot
// influence any table byte.
func retryBackoff(n int) time.Duration {
	d := 10 * time.Millisecond << (n - 1)
	if d > 200*time.Millisecond {
		d = 200 * time.Millisecond
	}
	return d
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
		if l, err := r.Store.TryLock(key); err == nil && l != nil {
			defer l.Unlock()
			// Another process may have committed the cell between the miss
			// above and our acquisition; serving it now is both faster and
			// exact (the simulator is deterministic either way). The probe
			// keeps the already-counted miss from counting twice.
			if r.Store.Committed(key) {
				if st, ok := r.Store.Get(key); ok {
					return cellOutcome{st: st, source: "store"}
				}
			}
		}
		// A held lock (live foreign PID) is not waited on: this process
		// simulates the cell itself and relies on the idempotent atomic
		// commit. Waiting could hang a sweep on a wedged peer — the exact
		// failure mode supervision exists to prevent.
	}

	var machineFailures int
	var transientRetries int
	for attempt := 1; ; attempt++ {
		st, err := r.runBounded(label, run)
		if err == nil {
			r.commitCell(key, st)
			return cellOutcome{st: st, attempts: attempt, source: "sim"}
		}

		var me *core.MachineError
		if errors.As(err, &me) {
			machineFailures++
			if machineFailures >= 2 {
				return cellOutcome{err: r.quarantine(key, label, err), attempts: attempt, source: "sim"}
			}
			// First machine error: re-run once to separate a deterministic
			// poisoned cell from a one-off host anomaly before condemning it.
			r.countSup(func(s *SupervisionCounts) { s.Retries++ })
			continue
		}
		var te *CellTimeoutError
		if errors.As(err, &te) {
			// Deadline-aware: a cell that already burned its budget is not
			// re-run — retrying would double the damage and the budget is
			// the user's explicit bound.
			r.countSup(func(s *SupervisionCounts) { s.Timeouts++ })
			return cellOutcome{err: err, attempts: attempt, source: "sim"}
		}
		if store.IsTransient(err) && transientRetries < r.Retries {
			transientRetries++
			r.countSup(func(s *SupervisionCounts) { s.Retries++ })
			time.Sleep(retryBackoff(transientRetries))
			continue
		}
		// Deterministic non-machine failure (build error, golden-validation
		// mismatch) or transient budget exhausted: surface as-is.
		return cellOutcome{err: err, attempts: attempt, source: "sim"}
	}
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
		// verdict without paying for two more failing simulations. A failed
		// write only costs that re-verification.
		_ = r.Store.Quarantine(store.QuarantineEntry{
			Key: key, Label: label, Reason: qe.Reason, Bundle: qe.Bundle,
		})
	}
	r.progressf("%-8s QUARANTINED after two deterministic machine failures", label)
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

// runBounded runs one simulation attempt under the wall-clock budget.
// On timeout the attempt's goroutine is abandoned (Go cannot kill it);
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
