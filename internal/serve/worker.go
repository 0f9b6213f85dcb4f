package serve

import (
	"context"
	"errors"
	"os"
	"time"

	"repro/internal/cliflags"
	"repro/internal/experiments"
	"repro/internal/store"
)

// Worker is one cell-execution loop: it scans the durable jobs for
// claimable cells, claims each through the store (TryLock), and
// commits through the runner's full supervision contract (store
// lookup, timeout, retry, quarantine, atomic Put). Workers share
// nothing but the store directory — there is no registration, no
// connection to the coordinator, and nothing a SIGKILL can corrupt: a
// dead worker's claim is stale and the cell is claimed by someone
// else.
type Worker struct {
	Store       *store.Store
	Flags       cliflags.Serve
	CellTimeout time.Duration
	Retries     int
	Owner       string                           // names the worker in logs and failure records
	Logf        func(format string, args ...any) // nil = silent

	planner *planner
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// Run executes cells until ctx is canceled. Cancellation is the drain
// signal: the cell in flight is finished and committed (the process's
// heartbeat keeps its claim alive meanwhile), no further cells are
// claimed, and Run returns. It never returns a non-nil error for
// ordinary cell failures — those become durable failure records; only
// a canceled context ends the loop.
func (w *Worker) Run(ctx context.Context) error {
	defer w.Store.Heartbeat(w.Flags.Lease)()
	return w.loop(ctx)
}

// loop is Run without the heartbeat, for workers that share their
// process's.
func (w *Worker) loop(ctx context.Context) error {
	if w.planner == nil {
		w.planner = newPlanner(w.Store, w.CellTimeout, w.Retries)
	}
	for {
		worked := false
		for _, id := range ListJobs(w.Store.Dir()) {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			did, err := w.processJob(ctx, id)
			if err != nil && ctx.Err() == nil {
				w.logf("worker: job %s: %v", id, err)
			}
			worked = worked || did
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if !worked {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(w.Flags.Poll):
			}
		}
	}
}

// processJob claims and executes every cell of one job that is
// claimable right now. It reports whether it simulated anything.
func (w *Worker) processJob(ctx context.Context, id string) (bool, error) {
	dir := jobDir(w.Store.Dir(), id)
	if _, err := os.Stat(dir + "/" + tablesFile); err == nil {
		return false, nil
	}
	if _, err := os.Stat(dir + "/" + failedFile); err == nil {
		return false, nil
	}
	pl, err := w.planner.plan(id)
	if err != nil {
		return false, err
	}
	// One read of the failure records per pass: a record a peer writes
	// during the pass costs at most one redundant run of its cell, which
	// fails the same way and records the failure again.
	failures := readFailures(w.Store.Dir(), id)
	worked := false
	for _, c := range pl.cells {
		if ctx.Err() != nil {
			return worked, nil
		}
		if w.Store.Committed(c.Key) {
			continue
		}
		if _, q := w.Store.Quarantined(c.Key); q {
			continue
		}
		if _, failed := failures[store.HashKey(c.Key)]; failed {
			continue
		}
		claim, err := w.Store.TryLock(c.Key)
		if err != nil {
			return worked, err
		}
		if claim == nil {
			continue // held by a live peer, or store read-only
		}
		worked = true
		w.execute(pl, c, claim, id)
	}
	return worked, nil
}

// execute runs one claimed cell, releases the claim and records the
// outcome durably. A claim broken meanwhile (this process looked dead
// or silent to a peer) costs at most a duplicate simulation: the
// commit is idempotent and byte-identical.
func (w *Worker) execute(pl *jobPlan, c experiments.DeclaredCell, claim *store.Lock, id string) {
	tm, err := pl.runner.ExecuteDeclared(c)
	claim.Unlock()

	switch {
	case err == nil:
		w.logf("worker: %s committed (%.2fs, source %s)", c.Label, tm.WallSeconds, tm.Source)
	case isQuarantined(err):
		// A durable verdict, not a failure: the quarantine entry is the
		// record, and assembly renders the cell as QUARANTINED.
		w.logf("worker: %s quarantined", c.Label)
	default:
		rec := FailureRecord{Key: c.Key, Label: c.Label, Error: err.Error(), Worker: w.Owner}
		if werr := writeFailure(w.Store.Dir(), id, rec); werr != nil {
			w.logf("worker: recording failure of %s: %v", c.Label, werr)
		}
		w.logf("worker: %s failed terminally: %v", c.Label, err)
	}
}

func isQuarantined(err error) bool {
	var qe *experiments.QuarantinedError
	return errors.As(err, &qe)
}
