package experiments

import (
	"time"

	"repro/internal/core"
)

// External cell execution: the hooks the sdsp-serve worker plane uses
// to run a sweep's cells out of process. A worker rebuilds the same
// Runner configuration from the job spec, asks DeclareCells for the
// deduplicated cell list (a cell's key is its cellID, derived from
// everything the cell simulates, so every worker and the coordinator
// agree on it byte for byte), claims individual cells through store
// leases, and executes each claimed cell with ExecuteDeclared — which
// applies the full supervision contract (store lookup, timeout, retry,
// quarantine, atomic commit) exactly as the in-process pipeline would.

// DeclaredCell is one externally executable unit of simulation work.
// The zero value is invalid; instances come from DeclareCells and stay
// bound to the Runner that produced them.
type DeclaredCell struct {
	Key   string
	Label string
	spec  cellSpec
}

// DeclareCells replays exps in declaration mode and returns the
// deduplicated cells the sweep needs, in declaration order. The
// returned keys are the cells' IDs: two processes declaring the same
// spec produce the same list, which is what makes key-addressed work
// claiming coherent across a worker fleet.
//
// The pending set is consumed: a subsequent RunExperiments on the same
// Runner re-declares from scratch (already-executed cells memoize).
func (r *Runner) DeclareCells(exps []Experiment) ([]DeclaredCell, error) {
	if err := r.declare(exps); err != nil {
		return nil, err
	}
	return r.takePending(), nil
}

// ExecuteDeclared runs one declared cell under the full supervision
// contract and memoizes the outcome. The returned error distinguishes
// terminal failures: a *QuarantinedError is a durable verdict (the
// cell is resolved, not failed), anything else is a real failure the
// caller must record. The timing mirrors what the in-process scheduler
// reports for the same cell.
func (r *Runner) ExecuteDeclared(c DeclaredCell) (CellTiming, error) {
	start := time.Now()
	out := r.superviseCell(c.Key, c.Label, func() (*core.Stats, error) { return r.simulate(c.Key, c.spec) })
	r.mu.Lock()
	r.cache[c.Key] = cellResult{out.st, out.err}
	r.mu.Unlock()
	tm := CellTiming{Key: c.Key, Label: c.Label, WallSeconds: time.Since(start).Seconds(),
		Attempts: out.attempts, Source: out.source}
	if out.st != nil {
		tm.Cycles = out.st.Cycles
	}
	if out.err != nil {
		tm.Err = out.err.Error()
	}
	return tm, out.err
}
