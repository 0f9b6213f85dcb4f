package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/cliflags"
	"repro/internal/experiments"
	"repro/internal/store"
)

// Worker is one cell-execution loop: it scans the durable jobs for
// claimable cells, acquires a store lease per cell, heartbeats the
// lease while the simulation runs, and commits through the runner's
// full supervision contract (store lookup, timeout, retry,
// quarantine, atomic Put). Workers share nothing but the store
// directory — there is no registration, no connection to the
// coordinator, and nothing a SIGKILL can corrupt: an unreleased lease
// simply expires and the cell is claimed by someone else.
type Worker struct {
	Store       *store.Store
	Flags       cliflags.Serve
	CellTimeout time.Duration
	Retries     int
	Owner       string                           // lease owner label; defaults to host/pid
	Logf        func(format string, args ...any) // nil = silent

	planner *planner
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

func (w *Worker) init() {
	if w.Owner == "" {
		host, _ := os.Hostname()
		w.Owner = fmt.Sprintf("%s/pid%d", host, os.Getpid())
	}
	if w.planner == nil {
		w.planner = newPlanner(w.Store, w.CellTimeout, w.Retries)
	}
}

// Run executes cells until ctx is canceled. Cancellation is the drain
// signal: the cell in flight is finished and committed (leases keep
// being renewed for it), no further cells are claimed, and Run
// returns. It never returns a non-nil error for ordinary cell
// failures — those become durable failure records; only a canceled
// context ends the loop.
func (w *Worker) Run(ctx context.Context) error {
	w.init()
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
		lease, err := w.Store.AcquireLease(c.Key, w.Owner, w.Flags.Lease)
		if err != nil {
			return worked, err
		}
		if lease == nil {
			continue // held by a live peer, or store read-only
		}
		worked = true
		w.executeLeased(pl, c, lease, id)
	}
	return worked, nil
}

// executeLeased runs one claimed cell under a heartbeat and records
// the outcome durably. The heartbeat goroutine renews the lease at
// the configured interval; if the lease is lost (we looked dead to a
// peer), the simulation still finishes — the commit is idempotent and
// byte-identical — but renewal stops.
func (w *Worker) executeLeased(pl *jobPlan, c experiments.DeclaredCell, lease *store.CellLease, id string) {
	stop := make(chan struct{})
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		t := time.NewTicker(w.Flags.Heartbeat)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if err := lease.Renew(w.Flags.Lease); err != nil {
					if errors.Is(err, store.ErrLeaseLost) {
						w.logf("worker: lease on %s lost mid-flight; finishing (commit is idempotent)", c.Label)
						return
					}
					// Transient renewal trouble: keep trying on the next tick.
				}
			}
		}
	}()

	tm, err := pl.runner.ExecuteDeclared(c)
	close(stop)
	<-hbDone
	lease.Release()

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
